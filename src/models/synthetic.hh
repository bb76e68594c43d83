/**
 * @file
 * Seeded synthetic training-step generator for fuzzing.
 *
 * The five zoo models exercise a handful of points in the graph space
 * the planner / policy matrix must handle; the fuzzer needs the rest
 * of it.  Given a seed, this builder derives a parameter vector
 * (depth, conv/mlp mix, fan-out via residual joins, tensor-size scale
 * from KB to multi-page, activation-reuse distance, short-/long-lived
 * mix) and emits a structurally valid training step through the same
 * ModelBuilder the zoo uses: mirrored forward/backward layers,
 * preallocated weights and optimizer state, saved activations consumed
 * by the backward pass, and per-op short-lived temporaries.
 *
 * Synthetic models are addressed by name so every harness / CLI /
 * bench path can run them:
 *
 *     synthetic:<seed>                   parameters derived from seed
 *     synthetic:<seed>:k=v[,k=v...]      explicit overrides (shrinker)
 *
 * Override keys: cu (conv units), mu (mlp units), img (image side),
 * ch (base channels), feat (mlp width), bp (branch probability),
 * rd (reuse distance in units), tmp (temps per op).
 */

#ifndef SENTINEL_MODELS_SYNTHETIC_HH
#define SENTINEL_MODELS_SYNTHETIC_HH

#include <cstdint>
#include <optional>
#include <string>

#include "dataflow/graph.hh"

namespace sentinel::models {

/** Generator parameter space; every field is shrinkable. */
struct SyntheticParams {
    std::uint64_t seed = 1;

    int conv_units = 4; ///< convolutional stage length (may be 0)
    int mlp_units = 2;  ///< fully-connected stage length (may be 0)

    int image = 16;    ///< input image side (conv stage geometry)
    int channels = 8;  ///< base conv channels (doubled mid-stage)
    int features = 256; ///< mlp width

    /** Probability a unit gains a residual join to an earlier
     *  activation — the fan-out knob; joins extend lifetimes across
     *  layers exactly like ResNet shortcuts do. */
    double branch_prob = 0.3;

    /** How many units back a residual join may reach (the
     *  activation-reuse-distance knob). */
    int reuse_distance = 2;

    /** Short-lived scratch tensors attached to every op (the
     *  short-/long-lived mix knob; 0 = no synthetic temporaries). */
    int temps_per_op = 8;

    /** Derive the whole vector from @p seed (deterministic). */
    static SyntheticParams fromSeed(std::uint64_t seed);

    /**
     * Canonical model name: "synthetic:<seed>" plus an override clause
     * for every field that differs from fromSeed(seed) — the minimal
     * spelling the shrinker emits.
     */
    std::string toName() const;

    bool hasConvs() const { return conv_units > 0; }
};

/** True if @p name uses the "synthetic:" prefix (well-formed or not). */
bool isSyntheticName(const std::string &name);

/**
 * Strict parse of a synthetic model name; nullopt when @p name is not
 * synthetic or is malformed (bad seed, unknown key, bad value).
 */
std::optional<SyntheticParams>
tryParseSyntheticName(const std::string &name);

/** Parse @p name; throws std::invalid_argument with a precise message
 *  when malformed. */
SyntheticParams parseSyntheticName(const std::string &name);

/** Build one training step from @p p at @p batch. */
df::Graph buildSynthetic(const SyntheticParams &p, int batch);

/**
 * The eight committed fuzz seeds: the corpus the policy-property suite
 * and the replay gate run on every build.  Chosen to cover deep conv
 * stacks, mlp-only graphs, heavy branching, and multi-MB tensors.
 */
constexpr std::uint64_t kCommittedFuzzSeeds[8] = {
    11, 23, 37, 58, 73, 97, 131, 176,
};

} // namespace sentinel::models

#endif // SENTINEL_MODELS_SYNTHETIC_HH
