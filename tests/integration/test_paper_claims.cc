/**
 * @file
 * Integration tests pinning the paper's headline *shapes* on ResNet-32
 * (the paper's characterization subject).  These are deliberately
 * loose bounds — the substrate is a simulator, not the authors'
 * testbed — but they lock in who wins, roughly by how much, and the
 * qualitative claims of Secs. III and VII.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "models/registry.hh"

namespace sentinel {
namespace {

class Resnet32Claims : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        harness::ExperimentConfig cfg;
        cfg.model = "resnet32";
        cfg.batch = 16; // reduced batch keeps the suite fast
        metrics_ = new std::map<std::string, harness::Metrics>();
        for (const auto &p : harness::cpuPolicies())
            metrics_->emplace(p, harness::runExperiment(cfg, p));
    }

    static void
    TearDownTestSuite()
    {
        delete metrics_;
        metrics_ = nullptr;
    }

    static const harness::Metrics &
    get(const std::string &name)
    {
        return metrics_->at(name);
    }

    static std::map<std::string, harness::Metrics> *metrics_;
};

std::map<std::string, harness::Metrics> *Resnet32Claims::metrics_ =
    nullptr;

TEST_F(Resnet32Claims, SentinelNearFastOnlyAt20Percent)
{
    // Paper: ~9% average gap at 20% of peak memory.
    EXPECT_LT(get("sentinel").step_time_ms,
              get("fast-only").step_time_ms * 1.20);
}

TEST_F(Resnet32Claims, SentinelBeatsAutoTm)
{
    // Paper: +17% on average, up to +31%.
    EXPECT_GT(get("autotm").step_time_ms,
              get("sentinel").step_time_ms * 1.05);
}

TEST_F(Resnet32Claims, AutoTmBeatsIal)
{
    // Fig. 7's consistent ordering.
    EXPECT_GT(get("ial").step_time_ms, get("autotm").step_time_ms);
}

TEST_F(Resnet32Claims, EveryPolicyBeatsOrMatchesSlowOnly)
{
    double slow = get("slow-only").step_time_ms;
    EXPECT_LT(get("sentinel").step_time_ms, slow);
    EXPECT_LT(get("autotm").step_time_ms, slow);
    EXPECT_LT(get("numa").step_time_ms, slow);
}

TEST_F(Resnet32Claims, SentinelMigratesMoreThanCompetitors)
{
    // Table IV: Sentinel migrates more than IAL and AutoTM — and hides
    // it.
    EXPECT_GT(get("sentinel").migrated_mb(), get("ial").migrated_mb());
    EXPECT_GE(get("sentinel").migrated_mb(),
              get("autotm").migrated_mb() * 0.8);
    EXPECT_LT(get("sentinel").exposed_ms, get("ial").exposed_ms + 0.01);
}

TEST_F(Resnet32Claims, SentinelUsesFastBandwidth)
{
    // Fig. 9's shape: Sentinel serves far more traffic from fast
    // memory than IAL, and less from slow memory.
    EXPECT_GT(get("sentinel").bytes_fast_mb, get("ial").bytes_fast_mb);
    EXPECT_LT(get("sentinel").bytes_slow_mb, get("ial").bytes_slow_mb);
}

TEST(PaperClaims, ProfilingOverheadBounds)
{
    // Sec. VII-B: profiling extends one step by up to ~5x; memory
    // overhead stays within a few percent.
    df::Graph g = models::makeModel("resnet32", 16);
    auto r = core::profileStep(g, core::RuntimeConfig::optane(1ull << 30));
    EXPECT_GT(r.profilingSlowdown(), 2.0);
    EXPECT_LT(r.profilingSlowdown(), 8.0);
    EXPECT_LT(r.memoryOverhead(), 0.05);
}

TEST(PaperClaims, SensitivityImprovesWithFastMemory)
{
    // Fig. 10: more fast memory never hurts; at 60% the gap to
    // fast-only essentially vanishes.
    harness::ExperimentConfig cfg;
    cfg.model = "resnet32";
    cfg.batch = 16;
    cfg.fast_fraction = 0.2;
    double t20 = harness::runExperiment(cfg, "sentinel").step_time_ms;
    cfg.fast_fraction = 0.6;
    double t60 = harness::runExperiment(cfg, "sentinel").step_time_ms;
    double fast = harness::runExperiment(cfg, "fast-only").step_time_ms;
    EXPECT_LE(t60, t20 * 1.01);
    EXPECT_LT(t60, fast * 1.10);
}

TEST(PaperClaims, GpuSentinelBeatsUm)
{
    // Fig. 12: Sentinel-GPU achieves 1.1x-7.8x over Unified Memory.
    harness::ExperimentConfig cfg;
    cfg.model = "resnet20";
    cfg.batch = 32;
    cfg.platform = harness::Platform::Gpu;
    cfg.fast_bytes = 24ull << 20;
    auto um = harness::runExperiment(cfg, "um");
    auto sgpu = harness::runExperiment(cfg, "sentinel");
    EXPECT_TRUE(sgpu.feasible);
    EXPECT_GT(um.step_time_ms, sgpu.step_time_ms * 1.1);
}

TEST(PaperClaims, GpuMaxBatchOrdering)
{
    // Table V's shape: Sentinel-GPU >= vDNN and > plain TensorFlow.
    std::uint64_t mem_bytes = 32ull << 20;
    int tf = harness::maxBatchSearch("resnet20", "tf", mem_bytes, 256);
    int vdnn =
        harness::maxBatchSearch("resnet20", "vdnn", mem_bytes, 256);
    int sentinel =
        harness::maxBatchSearch("resnet20", "sentinel", mem_bytes, 256);
    EXPECT_GT(sentinel, tf);
    EXPECT_GE(sentinel, vdnn);
}

} // namespace
} // namespace sentinel
