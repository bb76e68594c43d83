/**
 * @file
 * The model zoo: names, default batch sizes, and a factory.
 *
 * Mirrors Table III of the paper: five models, each evaluated at a
 * small and a large batch size.  Additional ResNet variants back the
 * scaling study of Fig. 11.
 */

#ifndef SENTINEL_MODELS_REGISTRY_HH
#define SENTINEL_MODELS_REGISTRY_HH

#include <string>
#include <vector>

#include "dataflow/graph.hh"

namespace sentinel::models {

struct ModelSpec {
    std::string name;
    int small_batch;
    int large_batch;
    /** True if the graph contains convolution layers (vDNN support). */
    bool has_convs;
};

/** The five evaluation models of Table III. */
const std::vector<ModelSpec> &modelZoo();

/** Build @p name at @p batch; throws std::invalid_argument on an
 *  unknown or malformed name. */
df::Graph makeModel(const std::string &name, int batch);

/** Spec lookup; throws std::invalid_argument on an unknown name. */
const ModelSpec &modelSpec(const std::string &name);

/**
 * Non-fatal spec lookup: null when @p name has no Table III entry.
 * The factory accepts more names than the zoo lists (the Fig. 11
 * ResNet variants) — callers defaulting a batch size from the spec
 * should fall back gracefully for those.  Well-formed
 * "synthetic:<seed>[:k=v,...]" (models/synthetic.hh) and
 * "llm:<preset>[:k=v,...]" (models/llm.hh) names resolve to an
 * on-demand spec; malformed family names return null.
 */
const ModelSpec *findModelSpec(const std::string &name);

} // namespace sentinel::models

#endif // SENTINEL_MODELS_REGISTRY_HH
