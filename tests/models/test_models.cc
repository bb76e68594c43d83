#include <algorithm>

#include <gtest/gtest.h>

#include "models/registry.hh"
#include "models/synthetic.hh"

namespace sentinel::models {
namespace {

class ModelZooTest : public ::testing::TestWithParam<ModelSpec>
{
};

TEST_P(ModelZooTest, BuildsAndFinalizes)
{
    const ModelSpec &spec = GetParam();
    df::Graph g = makeModel(spec.name, spec.small_batch);
    EXPECT_TRUE(g.finalized());
    EXPECT_GT(g.numLayers(), 2);
    EXPECT_GT(g.numOps(), 10u);
    EXPECT_GT(g.numTensors(), 50u);
    EXPECT_EQ(g.batchSize(), spec.small_batch);
}

TEST_P(ModelZooTest, CharacterizationObservation1)
{
    // Observation 1: a large number of small, short-lived tensors.
    const ModelSpec &spec = GetParam();
    df::Graph g = makeModel(spec.name, spec.small_batch);
    std::size_t n_short = 0;
    std::size_t n_small_short = 0;
    for (const auto &t : g.tensors()) {
        if (t.shortLived()) {
            ++n_short;
            if (t.small())
                ++n_small_short;
        }
    }
    double short_frac =
        static_cast<double>(n_short) / static_cast<double>(g.numTensors());
    double small_frac =
        static_cast<double>(n_small_short) / static_cast<double>(n_short);
    EXPECT_GT(short_frac, 0.75) << spec.name;
    EXPECT_GT(small_frac, 0.85) << spec.name;
}

TEST_P(ModelZooTest, ShortLivedPeakIsSmallFractionOfPeak)
{
    // The reserved-space assumption (Sec. IV-C): peak short-lived
    // consumption is a modest slice of peak memory.
    const ModelSpec &spec = GetParam();
    df::Graph g = makeModel(spec.name, spec.small_batch);
    EXPECT_GT(g.peakShortLivedBytes(), 0u);
    EXPECT_LT(g.peakShortLivedBytes(), g.peakMemoryBytes() / 2)
        << spec.name;
}

TEST_P(ModelZooTest, PeakMemoryGrowsWithBatch)
{
    const ModelSpec &spec = GetParam();
    df::Graph small = makeModel(spec.name, spec.small_batch);
    df::Graph large = makeModel(spec.name, spec.large_batch);
    EXPECT_GT(large.peakMemoryBytes(), small.peakMemoryBytes())
        << spec.name;
    // Same topology regardless of batch size.
    EXPECT_EQ(large.numLayers(), small.numLayers());
    EXPECT_EQ(large.numOps(), small.numOps());
}

TEST_P(ModelZooTest, ConvPresenceMatchesSpec)
{
    const ModelSpec &spec = GetParam();
    df::Graph g = makeModel(spec.name, spec.small_batch);
    bool has_conv = false;
    for (const auto &op : g.ops())
        has_conv = has_conv || op.type == df::OpType::Conv2d;
    EXPECT_EQ(has_conv, spec.has_convs) << spec.name;
}

TEST_P(ModelZooTest, DeterministicConstruction)
{
    const ModelSpec &spec = GetParam();
    df::Graph a = makeModel(spec.name, spec.small_batch);
    df::Graph b = makeModel(spec.name, spec.small_batch);
    ASSERT_EQ(a.numTensors(), b.numTensors());
    ASSERT_EQ(a.numOps(), b.numOps());
    for (df::TensorId id = 0; id < a.numTensors(); ++id) {
        EXPECT_EQ(a.tensor(id).bytes, b.tensor(id).bytes);
        EXPECT_EQ(a.tensor(id).name, b.tensor(id).name);
    }
    EXPECT_EQ(a.peakMemoryBytes(), b.peakMemoryBytes());
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, ModelZooTest, ::testing::ValuesIn(modelZoo()),
    [](const ::testing::TestParamInfo<ModelSpec> &info) {
        return info.param.name;
    });

TEST(ModelRegistry, UnknownModelIsInvalidArgument)
{
    EXPECT_THROW(makeModel("alexnet", 32), std::invalid_argument);
    EXPECT_THROW(modelSpec("alexnet"), std::invalid_argument);
}

TEST(ModelRegistry, ResNetVariantsForScalingStudy)
{
    std::uint64_t prev = 0;
    for (const char *name :
         { "resnet20", "resnet32", "resnet44", "resnet56", "resnet110" }) {
        df::Graph g = makeModel(name, 32);
        EXPECT_GT(g.peakMemoryBytes(), prev) << name;
        prev = g.peakMemoryBytes();
    }
}

TEST(ModelRegistry, BottleneckResNetsAreDeeper)
{
    df::Graph r152 = makeModel("resnet152", 4);
    df::Graph r200 = makeModel("resnet200", 4);
    EXPECT_GT(r200.numLayers(), r152.numLayers());
    EXPECT_GT(r200.peakMemoryBytes(), r152.peakMemoryBytes());
}

TEST(SyntheticRegistry, DispatchesByName)
{
    df::Graph g = makeModel("synthetic:42", 4);
    EXPECT_TRUE(g.finalized());
    EXPECT_GT(g.numLayers(), 2);
    EXPECT_GT(g.numOps(), 4u);
    EXPECT_EQ(g.batchSize(), 4);

    // Same name, same graph — the name is the full recipe.
    df::Graph h = makeModel("synthetic:42", 4);
    ASSERT_EQ(g.numTensors(), h.numTensors());
    ASSERT_EQ(g.numOps(), h.numOps());
    EXPECT_EQ(g.peakMemoryBytes(), h.peakMemoryBytes());
}

TEST(SyntheticRegistry, OverridesChangeTheGraph)
{
    df::Graph shallow = makeModel("synthetic:42:cu=1,mu=1", 4);
    df::Graph deeper = makeModel("synthetic:42:cu=8,mu=4", 4);
    EXPECT_GT(deeper.numLayers(), shallow.numLayers());
    df::Graph temps = makeModel("synthetic:42:cu=1,mu=1,tmp=8", 4);
    df::Graph no_temps = makeModel("synthetic:42:cu=1,mu=1,tmp=0", 4);
    EXPECT_LT(no_temps.numTensors(), temps.numTensors());
}

TEST(SyntheticRegistry, FindModelSpecMintsStableSpecs)
{
    const ModelSpec *a = findModelSpec("synthetic:42");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->name, "synthetic:42");
    EXPECT_GT(a->small_batch, 0);
    // Repeated lookups return the same cached node.
    EXPECT_EQ(a, findModelSpec("synthetic:42"));
    // modelSpec (the fatal wrapper) resolves through the same path.
    EXPECT_EQ(&modelSpec("synthetic:42"), a);
}

TEST(SyntheticRegistry, SpecReportsConvPresence)
{
    SyntheticParams with = SyntheticParams::fromSeed(1);
    with.conv_units = 2;
    SyntheticParams without = with;
    without.conv_units = 0;
    without.mlp_units = std::max(1, without.mlp_units);
    const ModelSpec *c = findModelSpec(with.toName());
    const ModelSpec *m = findModelSpec(without.toName());
    ASSERT_NE(c, nullptr);
    ASSERT_NE(m, nullptr);
    EXPECT_TRUE(c->has_convs);
    EXPECT_FALSE(m->has_convs);
}

TEST(SyntheticRegistry, NameRoundTripsThroughToName)
{
    for (std::uint64_t seed : kCommittedFuzzSeeds) {
        SyntheticParams p = SyntheticParams::fromSeed(seed);
        // Defaults serialize to the bare form…
        EXPECT_EQ(p.toName(), "synthetic:" + std::to_string(seed));
        // …and overrides survive a parse round trip.
        p.conv_units = 1;
        p.mlp_units = std::max(1, p.mlp_units);
        p.temps_per_op = 0;
        p.branch_prob = 0.0;
        std::optional<SyntheticParams> back =
            tryParseSyntheticName(p.toName());
        ASSERT_TRUE(back.has_value()) << p.toName();
        EXPECT_EQ(back->conv_units, 1);
        EXPECT_EQ(back->temps_per_op, 0);
        EXPECT_EQ(back->branch_prob, 0.0);
        EXPECT_EQ(back->toName(), p.toName());
    }
}

TEST(SyntheticRegistry, MalformedNamesAreRejected)
{
    const char *bad[] = {
        "synthetic:",                 // empty seed
        "synthetic:abc",              // non-numeric seed
        "synthetic:12x",              // trailing junk in seed
        "synthetic:99999999999999999999999", // > 2^64-1
        "synthetic:1:",               // empty override clause
        "synthetic:1:cu",             // no '='
        "synthetic:1:=4",             // empty key
        "synthetic:1:zz=4",           // unknown key
        "synthetic:1:cu=-1",          // negative value
        "synthetic:1:cu=999",         // above bound
        "synthetic:1:bp=1.5",         // probability out of range
        "synthetic:1:cu=0,mu=0",      // no units at all
        // Regression: strtod/strtoull accepted all of these, and NaN
        // even slipped through the [0,1] range check (both comparisons
        // are false for NaN).  The grammar is now explicit: optional-
        // fraction decimal with optional exponent, no signs, no
        // whitespace, no hex, no named specials, locale-independent.
        "synthetic:1:bp=nan",         // NaN passes v<0||v>1
        "synthetic:1:bp=NAN",         // case variant
        "synthetic:1:bp=inf",         // infinity literal
        "synthetic:1:bp=+0.5",        // explicit sign
        "synthetic:1:bp=-0.0",        // negative zero
        "synthetic:1:bp= 0.5",        // leading whitespace
        "synthetic:1:bp=0x1p-4",      // hex float
        "synthetic:1:bp=0.5f",        // trailing suffix
        "synthetic:1:bp=.",           // no digits at all
        "synthetic:1:bp=1e",          // empty exponent
        "synthetic:1:bp=1e400",       // exponent overflow
        "synthetic:1:bp=0,5",         // locale decimal comma
        "synthetic:1:cu=+4",          // signed integer
        "synthetic:1:cu= 4",          // whitespace integer
        "synthetic:1:cu=0x4",         // hex integer
        "synthetic:1:cu=99999999999999999999", // uint64 overflow
        "synthetic: 1",               // whitespace seed
        "synthetic:+1",               // signed seed
        "synthetic:0x1",              // hex seed
    };
    for (const char *name : bad) {
        EXPECT_FALSE(tryParseSyntheticName(name).has_value()) << name;
        EXPECT_EQ(findModelSpec(name), nullptr) << name;
        EXPECT_THROW(makeModel(name, 4), std::invalid_argument) << name;
        EXPECT_THROW(modelSpec(name), std::invalid_argument) << name;
    }
    // Non-synthetic names never reach the synthetic parser.
    EXPECT_FALSE(tryParseSyntheticName("resnet20").has_value());
}

TEST(SyntheticRegistry, MatchesPaperCharacterization)
{
    // The generator feeds the same invariant checks as the zoo, so its
    // graphs must honor Observation 1 (many small short-lived tensors)
    // whenever temporaries are enabled.
    df::Graph g = makeModel("synthetic:11", 4);
    std::size_t n_short = 0;
    for (const auto &t : g.tensors())
        if (t.shortLived())
            ++n_short;
    EXPECT_GT(static_cast<double>(n_short) /
                  static_cast<double>(g.numTensors()),
              0.5);
}

TEST(ModelRegistry, HotScalarsExistInEveryModel)
{
    // The runtime bookkeeping scalars anchoring Observation 2's hot
    // set must be present and referenced by many ops.
    df::Graph g = makeModel("resnet32", 8);
    int found = 0;
    for (const auto &t : g.tensors()) {
        if (t.name.rfind("rt/", 0) == 0) {
            ++found;
            EXPECT_TRUE(t.preallocated);
            EXPECT_TRUE(t.small());
        }
    }
    EXPECT_EQ(found, 4);
}

} // namespace
} // namespace sentinel::models
