/**
 * @file
 * Transformer/LLM training-step family for N-tier experiments.
 *
 * The Table III zoo tops out at BERT-large; the three-tier experiments
 * need graphs whose working set dwarfs the fast tier by one to two
 * orders of magnitude, so that the middle tier actually carries staged
 * traffic.  This family emits decoder-style language models
 * (embedding gather, stacked self-attention + FFN blocks, a vocab-wide
 * LM head, mirrored backward with optimizer state) through the same
 * ModelBuilder the zoo uses.
 *
 * LLM models reuse the synthetic: family's name-grammar machinery so
 * every harness / CLI / fuzz path can address them by string:
 *
 *     llm:<preset>                     tiny | small | medium | large
 *     llm:<preset>:k=v[,k=v...]       explicit overrides
 *
 * Override keys: l (decoder blocks), hd (hidden width), heads
 * (attention heads; must divide hd), seq (sequence length),
 * vocab (vocabulary size).
 */

#ifndef SENTINEL_MODELS_LLM_HH
#define SENTINEL_MODELS_LLM_HH

#include <cstdint>
#include <optional>
#include <string>

#include "dataflow/graph.hh"

namespace sentinel::models {

/** LLM generator parameter space; every field is shrinkable. */
struct LlmParams {
    std::string preset = "tiny";

    int layers = 4;    ///< decoder blocks (attention + FFN)
    int hidden = 256;  ///< model width
    int heads = 4;     ///< attention heads (divides hidden)
    int seq = 128;     ///< sequence length
    int vocab = 8192;  ///< vocabulary (embedding table + LM head rows)

    /**
     * Derive the vector for @p preset; nullopt on an unknown preset.
     * tiny fits CI budgets; large is the 10-100x fast-tier point the
     * three-tier DRAM-size sweep (EXPERIMENTS bench_ntier) runs at.
     */
    static std::optional<LlmParams> fromPreset(const std::string &preset);

    /**
     * Canonical model name: "llm:<preset>" plus an override clause for
     * every field that differs from fromPreset(preset) — the minimal
     * spelling, round-tripping through tryParseLlmName().
     */
    std::string toName() const;
};

/** True if @p name uses the "llm:" prefix (well-formed or not). */
bool isLlmName(const std::string &name);

/**
 * Strict parse of an LLM model name; nullopt when @p name is not an
 * llm: name or is malformed (unknown preset, unknown key, bad value,
 * heads not dividing hidden).
 */
std::optional<LlmParams> tryParseLlmName(const std::string &name);

/** Parse @p name; throws std::invalid_argument with a precise message
 *  when malformed. */
LlmParams parseLlmName(const std::string &name);

/** Build one training step from @p p at @p batch. */
df::Graph buildLlm(const LlmParams &p, int batch);

/** The committed presets, smallest first (test-matrix order). */
constexpr const char *kLlmPresets[4] = {
    "tiny", "small", "medium", "large",
};

} // namespace sentinel::models

#endif // SENTINEL_MODELS_LLM_HH
