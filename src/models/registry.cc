#include "models/registry.hh"

#include <map>
#include <mutex>
#include <stdexcept>

#include "common/logging.hh"
#include "models/bert.hh"
#include "models/dcgan.hh"
#include "models/llm.hh"
#include "models/lstm.hh"
#include "models/mobilenet.hh"
#include "models/resnet.hh"
#include "models/synthetic.hh"

namespace sentinel::models {

const std::vector<ModelSpec> &
modelZoo()
{
    static const std::vector<ModelSpec> zoo = {
        { "resnet32", 32, 256, true },
        { "resnet200", 8, 32, true },
        { "bert_large", 4, 12, false },
        { "lstm", 128, 512, false },
        { "mobilenet", 32, 256, true },
        { "dcgan", 32, 64, true },
    };
    return zoo;
}

const ModelSpec &
modelSpec(const std::string &name)
{
    const ModelSpec *spec = findModelSpec(name);
    if (!spec)
        throw std::invalid_argument(
            strprintf("unknown model '%s'", name.c_str()));
    return *spec;
}

const ModelSpec *
findModelSpec(const std::string &name)
{
    for (const auto &spec : modelZoo())
        if (spec.name == name)
            return &spec;
    // Name-grammar families (synthetic:, llm:) mint specs on demand;
    // std::map node stability keeps the returned pointers valid for
    // the process lifetime.
    static std::mutex mu;
    static std::map<std::string, ModelSpec> cache;
    if (isSyntheticName(name)) {
        std::optional<SyntheticParams> p = tryParseSyntheticName(name);
        if (!p)
            return nullptr;
        std::lock_guard<std::mutex> lock(mu);
        auto it = cache
                      .try_emplace(name,
                                   ModelSpec{ name, 4, 16, p->hasConvs() })
                      .first;
        return &it->second;
    }
    if (isLlmName(name)) {
        if (!tryParseLlmName(name))
            return nullptr;
        std::lock_guard<std::mutex> lock(mu);
        auto it = cache
                      .try_emplace(name, ModelSpec{ name, 2, 8, false })
                      .first;
        return &it->second;
    }
    return nullptr;
}

df::Graph
makeModel(const std::string &name, int batch)
{
    SENTINEL_ASSERT(batch > 0, "batch must be positive");
    // Seeded fuzz models (parseSyntheticName throws on a malformed
    // name, matching the unknown-model behaviour below).
    if (isSyntheticName(name))
        return buildSynthetic(parseSyntheticName(name), batch);
    // LLM-scale transformers for the N-tier experiments.
    if (isLlmName(name))
        return buildLlm(parseLlmName(name), batch);
    // The Table III zoo.
    if (name == "resnet32")
        return buildCifarResNet(32, batch);
    if (name == "resnet200")
        return buildBottleneckResNet(200, batch);
    if (name == "bert_base")
        return buildBertBase(batch);
    if (name == "bert_large")
        return buildBertLarge(batch);
    if (name == "lstm")
        return buildLstm(batch);
    if (name == "mobilenet")
        return buildMobileNet(batch);
    if (name == "dcgan")
        return buildDcgan(batch);
    // ResNet variants for the Fig. 11 scaling study.
    if (name == "resnet20")
        return buildCifarResNet(20, batch);
    if (name == "resnet44")
        return buildCifarResNet(44, batch);
    if (name == "resnet56")
        return buildCifarResNet(56, batch);
    if (name == "resnet110")
        return buildCifarResNet(110, batch);
    if (name == "resnet152")
        return buildBottleneckResNet(152, batch);
    throw std::invalid_argument(strprintf("unknown model '%s'", name.c_str()));
}

} // namespace sentinel::models
