#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <sstream>

#include "harness/experiment.hh"
#include "harness/oracle.hh"
#include "mem/page.hh"
#include "models/registry.hh"
#include "profile/serialize.hh"

namespace sentinel::harness {
namespace {

/** Non-finite inputs every range check must reject: NaN passes a
 *  plain `x <= 0` test, and both would be cast to an integer. */
constexpr double kNonFinite[] = {
    std::numeric_limits<double>::quiet_NaN(),
    std::numeric_limits<double>::infinity(),
    -std::numeric_limits<double>::infinity(),
};

ExperimentConfig
smallConfig()
{
    ExperimentConfig cfg;
    cfg.model = "resnet20";
    cfg.batch = 8;
    cfg.steps = 8;
    cfg.warmup = 6;
    return cfg;
}

TEST(Harness, RunsEveryCpuPolicy)
{
    ExperimentConfig cfg = smallConfig();
    for (const auto &name : cpuPolicies()) {
        Metrics m = runExperiment(cfg, name);
        EXPECT_TRUE(m.supported) << name;
        EXPECT_GT(m.step_time_ms, 0.0) << name;
        EXPECT_GT(m.throughput, 0.0) << name;
        EXPECT_EQ(m.policy, name);
    }
}

TEST(Harness, OrderingSanity)
{
    // The endpoints must order: fast-only fastest, slow-only slowest.
    ExperimentConfig cfg = smallConfig();
    Metrics fast = runExperiment(cfg, "fast-only");
    Metrics slow = runExperiment(cfg, "slow-only");
    Metrics sentinel = runExperiment(cfg, "sentinel");
    EXPECT_LT(fast.step_time_ms, slow.step_time_ms);
    EXPECT_LE(fast.step_time_ms, sentinel.step_time_ms * 1.02);
    EXPECT_LT(sentinel.step_time_ms, slow.step_time_ms);
}

TEST(Harness, SentinelMetricsPopulated)
{
    Metrics m = runExperiment(smallConfig(), "sentinel");
    EXPECT_GE(m.mil, 1);
    EXPECT_GT(m.pool_mb, 0.0);
}

TEST(Harness, FastFractionShrinksFastTier)
{
    ExperimentConfig cfg = smallConfig();
    cfg.fast_fraction = 0.2;
    Metrics tight = runExperiment(cfg, "numa");
    cfg.fast_fraction = 0.6;
    Metrics roomy = runExperiment(cfg, "numa");
    EXPECT_LT(roomy.step_time_ms, tight.step_time_ms);
    EXPECT_LT(roomy.bytes_slow_mb, tight.bytes_slow_mb);
}

TEST(Harness, VdnnUnsupportedOnLstm)
{
    ExperimentConfig cfg = smallConfig();
    cfg.model = "lstm";
    cfg.platform = Platform::Gpu;
    cfg.fast_bytes = 64ull << 20;
    Metrics m = runExperiment(cfg, "vdnn");
    EXPECT_FALSE(m.supported);
}

TEST(Harness, GpuFeasibilityDetectsOverflow)
{
    // Tiny device memory: plain "tf" (fast-only, strict) cannot hold
    // the model; Sentinel-GPU still can by swapping.
    ExperimentConfig cfg = smallConfig();
    cfg.platform = Platform::Gpu;
    cfg.fast_bytes = 8ull << 20;
    df::Graph g = models::makeModel(cfg.model, cfg.batch);
    ASSERT_GT(g.peakMemoryBytes(), cfg.fast_bytes);

    Metrics sentinel = runExperiment(cfg, "sentinel");
    EXPECT_TRUE(sentinel.feasible);
}

TEST(Harness, MaxBatchTfMatchesStaticPeak)
{
    // For "tf" the search reduces to the largest batch whose peak fits.
    std::uint64_t mem_bytes = 96ull << 20;
    int b = maxBatchSearch("resnet20", "tf", mem_bytes, 256);
    ASSERT_GT(b, 0);
    EXPECT_LE(models::makeModel("resnet20", b).peakMemoryBytes(),
              mem_bytes);
    EXPECT_GT(models::makeModel("resnet20", b + 1).peakMemoryBytes(),
              mem_bytes);
}

TEST(Harness, MaxBatchGrowsWithDeviceMemory)
{
    int small = maxBatchSearch("resnet20", "tf", 48ull << 20, 256);
    int large = maxBatchSearch("resnet20", "tf", 96ull << 20, 256);
    EXPECT_GT(large, small);
}

TEST(Harness, SentinelMaxBatchBeatsTf)
{
    std::uint64_t mem_bytes = 48ull << 20;
    int tf = maxBatchSearch("resnet20", "tf", mem_bytes, 128);
    int sentinel = maxBatchSearch("resnet20", "sentinel", mem_bytes, 128);
    EXPECT_GT(sentinel, tf);
}

TEST(Harness, UnknownPolicyIsFatal)
{
    // Rejected by validate(), before any model is built: even a model
    // that cannot build reports the policy.
    EXPECT_THROW(runExperiment(smallConfig(), "tcmalloc"), ConfigError);
    ExperimentConfig cfg = smallConfig();
    cfg.model = "no-such-model";
    try {
        runExperiment(cfg, "tcmalloc");
        ADD_FAILURE() << "unknown policy accepted";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("tcmalloc"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Harness, RejectsNonPositiveBatchAndSteps)
{
    ExperimentConfig cfg = smallConfig();
    cfg.batch = 0;
    EXPECT_THROW(runExperiment(cfg, "numa"), ConfigError);
    cfg = smallConfig();
    cfg.steps = 0;
    EXPECT_THROW(runExperiment(cfg, "numa"), ConfigError);
}

TEST(Harness, RejectsMalformedModelNameAsConfigError)
{
    // A model name that cannot build (malformed synthetic spec,
    // unknown zoo name) is a rejected *input*, not an infeasible run:
    // the harness converts the factory's failure into ConfigError so
    // the fuzzer can tell it apart from a violated invariant.
    ExperimentConfig cfg = smallConfig();
    for (const char *name :
         { "synthetic:1:bp=nan", "synthetic:1:bp=+0.5", "synthetic:abc",
           "no-such-model" }) {
        cfg.model = name;
        EXPECT_THROW(runExperiment(cfg, "numa"), ConfigError) << name;
    }
}

TEST(Harness, RejectsUnknownPlannerAsConfigError)
{
    ExperimentConfig cfg = smallConfig();
    cfg.planner = "ilp";
    EXPECT_THROW(runExperiment(cfg, "sentinel"), ConfigError);
    // The knob gates Sentinel's co-allocation only, but validation is
    // uniform: a bad value is rejected for every policy.
    EXPECT_THROW(runExperiment(cfg, "numa"), ConfigError);
}

TEST(Harness, RejectsWarmupOutsideSteps)
{
    ExperimentConfig cfg = smallConfig();
    cfg.warmup = cfg.steps;
    EXPECT_THROW(runExperiment(cfg, "numa"), ConfigError);
    cfg.warmup = -1;
    EXPECT_THROW(runExperiment(cfg, "numa"), ConfigError);
}

TEST(Harness, RejectsSubPageFastTier)
{
    ExperimentConfig cfg = smallConfig();
    cfg.fast_bytes = mem::kPageSize - 1;
    for (const auto &name : cpuPolicies())
        EXPECT_THROW(runExperiment(cfg, name), ConfigError) << name;
    // A zero fraction can never yield even one page.
    cfg = smallConfig();
    cfg.fast_fraction = 0.0;
    EXPECT_THROW(runExperiment(cfg, "numa"), ConfigError);
    for (double bad : kNonFinite) {
        cfg.fast_fraction = bad;
        EXPECT_THROW(runExperiment(cfg, "numa"), ConfigError) << bad;
    }
}

TEST(Harness, RejectsNonFiniteMidTierKnobs)
{
    ExperimentConfig cfg = smallConfig();
    cfg.tiers = 3;
    for (double bad : kNonFinite) {
        cfg.mid_fraction = bad;
        EXPECT_THROW(runExperiment(cfg, "numa"), ConfigError) << bad;
    }
    cfg = smallConfig();
    cfg.tiers = 3;
    for (double bad : kNonFinite) {
        cfg.mid_bw = bad;
        EXPECT_THROW(runExperiment(cfg, "numa"), ConfigError) << bad;
    }
}

TEST(Harness, RejectsReservedPoolConsumingWholeTier)
{
    // One page of fast memory: the default rs_cap_fraction rounds up to
    // the whole tier, which would leave Sentinel's long-lived plan with
    // nothing.  Other policies accept the same (tiny but valid) tier.
    ExperimentConfig cfg = smallConfig();
    cfg.fast_bytes = mem::kPageSize;
    EXPECT_THROW(runExperiment(cfg, "sentinel"), ConfigError);
    EXPECT_NO_THROW(runExperiment(cfg, "numa"));

    cfg = smallConfig();
    cfg.sentinel.rs_cap_fraction = 1.5;
    EXPECT_THROW(runExperiment(cfg, "sentinel"), ConfigError);
    for (double bad : kNonFinite) {
        cfg.sentinel.rs_cap_fraction = bad;
        EXPECT_THROW(runExperiment(cfg, "sentinel"), ConfigError) << bad;
    }
}

TEST(Harness, OracleRejectsWhatTheHarnessRejects)
{
    // Every invalid configuration of the Rejects* cases above (plus
    // NtierDegradation.SubPageMidTierIsRejected): the oracle shares the
    // harness's preconditions, so each one is a ConfigError there too,
    // never a violation or a run error.
    std::vector<std::pair<std::string, ExperimentConfig>> bad;
    auto add = [&](std::string why,
                   const std::function<void(ExperimentConfig &)> &edit) {
        ExperimentConfig cfg = smallConfig();
        edit(cfg);
        bad.emplace_back(std::move(why), cfg);
    };
    add("batch 0", [](ExperimentConfig &c) { c.batch = 0; });
    add("steps 0", [](ExperimentConfig &c) { c.steps = 0; });
    add("warmup == steps",
        [](ExperimentConfig &c) { c.warmup = c.steps; });
    add("warmup -1", [](ExperimentConfig &c) { c.warmup = -1; });
    for (const char *name : { "synthetic:1:bp=nan", "synthetic:abc",
                              "no-such-model" })
        add(name, [name](ExperimentConfig &c) { c.model = name; });
    add("planner ilp", [](ExperimentConfig &c) { c.planner = "ilp"; });
    add("tiers 0", [](ExperimentConfig &c) { c.tiers = 0; });
    add("sub-page fast tier",
        [](ExperimentConfig &c) { c.fast_bytes = mem::kPageSize - 1; });
    add("fast_fraction 0", [](ExperimentConfig &c) { c.fast_fraction = 0; });
    add("sub-page mid tier", [](ExperimentConfig &c) {
        c.tiers = 3;
        c.mid_bytes = mem::kPageSize - 1;
    });
    add("pool consumes the tier",
        [](ExperimentConfig &c) { c.fast_bytes = mem::kPageSize; });
    add("rs_cap_fraction 1.5",
        [](ExperimentConfig &c) { c.sentinel.rs_cap_fraction = 1.5; });
    for (double v : kNonFinite) {
        add("fast_fraction " + std::to_string(v),
            [v](ExperimentConfig &c) { c.fast_fraction = v; });
        add("mid_fraction " + std::to_string(v), [v](ExperimentConfig &c) {
            c.tiers = 3;
            c.mid_fraction = v;
        });
        add("mid_bw " + std::to_string(v), [v](ExperimentConfig &c) {
            c.tiers = 3;
            c.mid_bw = v;
        });
        add("rs_cap_fraction " + std::to_string(v),
            [v](ExperimentConfig &c) { c.sentinel.rs_cap_fraction = v; });
    }

    OracleOptions opts;
    opts.run_gpu = false;
    opts.check_determinism = false;
    for (const auto &[why, cfg] : bad) {
        EXPECT_THROW(runExperiment(cfg, "sentinel"), ConfigError) << why;
        EXPECT_THROW(runOracle(cfg, opts), ConfigError) << why;
    }
}

void
expectIdenticalSteps(const std::vector<df::StepStats> &a,
                     const std::vector<df::StepStats> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "step " << i);
        EXPECT_EQ(a[i].step_time, b[i].step_time);
        EXPECT_EQ(a[i].compute_time, b[i].compute_time);
        EXPECT_EQ(a[i].mem_time, b[i].mem_time);
        EXPECT_EQ(a[i].exposed_migration, b[i].exposed_migration);
        EXPECT_EQ(a[i].policy_time, b[i].policy_time);
        EXPECT_EQ(a[i].bytes_fast, b[i].bytes_fast);
        EXPECT_EQ(a[i].bytes_slow, b[i].bytes_slow);
        EXPECT_EQ(a[i].slow_bytes_by_kind, b[i].slow_bytes_by_kind);
        EXPECT_EQ(a[i].promoted_bytes, b[i].promoted_bytes);
        EXPECT_EQ(a[i].demoted_bytes, b[i].demoted_bytes);
        EXPECT_EQ(a[i].peak_tier_used, b[i].peak_tier_used);
        EXPECT_EQ(a[i].num_stalls, b[i].num_stalls);
    }
}

TEST(Harness, RunFromSavedProfileMatchesSelfProfiledRun)
{
    // The `sentinel-cli profile --in` path: a profile persisted and
    // loaded back drives a Run exactly like the one it came from.
    ExperimentConfig cfg = smallConfig();
    harness::Run self(cfg, "sentinel");
    ASSERT_NE(self.profile(), nullptr);
    std::stringstream buf;
    ASSERT_TRUE(prof::saveProfile(self.profile()->db, buf));
    prof::ProfileDatabase db = prof::loadProfile(buf);

    harness::Run loaded(cfg, "sentinel", &db);
    EXPECT_EQ(loaded.profile(), nullptr); // no profiling step of its own
    StepTrace a = self.finish();
    StepTrace b = loaded.finish();
    ASSERT_FALSE(a.steps.empty());
    expectIdenticalSteps(a.steps, b.steps);
    EXPECT_EQ(a.metrics.mil, b.metrics.mil);
    EXPECT_EQ(a.metrics.step_time_ms, b.metrics.step_time_ms);

    // A profile of another graph is a rejected input.
    cfg.model = "resnet32";
    EXPECT_THROW(harness::Run(cfg, "sentinel", &db), ConfigError);
}

TEST(Harness, ConfigErrorIsDistinguishableFromRunFailures)
{
    // ConfigError means "the experiment was never meaningful", so it
    // deliberately is not a runtime_error — callers that map
    // runtime_error to an infeasible cell (the oracle, the sweep
    // drivers) must not swallow it.
    ExperimentConfig cfg = smallConfig();
    cfg.batch = -3;
    EXPECT_THROW(runExperiment(cfg, "numa"), std::invalid_argument);
    bool caught_as_runtime = false;
    try {
        runExperiment(cfg, "numa");
    } catch (const std::runtime_error &) {
        caught_as_runtime = true;
    } catch (const std::logic_error &) {
    }
    EXPECT_FALSE(caught_as_runtime);
    // And a well-formed config sails through.
    EXPECT_NO_THROW(runExperiment(smallConfig(), "sentinel"));
}

void
expectIdenticalMetrics(const Metrics &a, const Metrics &b)
{
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.model, b.model);
    EXPECT_EQ(a.batch, b.batch);
    EXPECT_EQ(a.supported, b.supported);
    EXPECT_EQ(a.feasible, b.feasible);
    // Exact equality, not near: each cell is an independent
    // deterministic simulation, so threading must not change a bit.
    EXPECT_EQ(a.step_time_ms, b.step_time_ms);
    EXPECT_EQ(a.throughput, b.throughput);
    EXPECT_EQ(a.exposed_ms, b.exposed_ms);
    EXPECT_EQ(a.recompute_ms, b.recompute_ms);
    EXPECT_EQ(a.fault_ms, b.fault_ms);
    EXPECT_EQ(a.promoted_mb, b.promoted_mb);
    EXPECT_EQ(a.demoted_mb, b.demoted_mb);
    EXPECT_EQ(a.bytes_fast_mb, b.bytes_fast_mb);
    EXPECT_EQ(a.bytes_slow_mb, b.bytes_slow_mb);
    EXPECT_EQ(a.peak_fast_mb, b.peak_fast_mb);
    EXPECT_EQ(a.mil, b.mil);
    EXPECT_EQ(a.case3_events, b.case3_events);
    EXPECT_EQ(a.trial_steps, b.trial_steps);
    EXPECT_EQ(a.pool_mb, b.pool_mb);
}

std::vector<SweepCell>
everyCpuPolicy(const ExperimentConfig &cfg)
{
    std::vector<SweepCell> cells;
    for (const auto &p : cpuPolicies())
        cells.push_back({ cfg, p });
    return cells;
}

TEST(Harness, ParallelSweepMatchesSerialExactly)
{
    std::vector<SweepCell> cells = everyCpuPolicy(smallConfig());
    auto serial = runSweep(cells, 1);
    auto parallel = runSweep(cells, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE(cpuPolicies()[i]);
        expectIdenticalMetrics(parallel[i], serial[i]);
    }
}

TEST(Harness, SweepIsInputOrderedAndDeterministic)
{
    std::vector<SweepCell> cells;
    for (const char *policy : { "fast-only", "numa", "slow-only" }) {
        ExperimentConfig cfg = smallConfig();
        cells.push_back({ cfg, policy });
    }
    auto serial = runSweep(cells, 1);
    auto parallel = runSweep(cells, 4);
    ASSERT_EQ(serial.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        EXPECT_EQ(serial[i].policy, cells[i].policy);
        expectIdenticalMetrics(parallel[i], serial[i]);
    }
}

TEST(Harness, ParallelMaxBatchMatchesSerial)
{
    std::uint64_t mem_bytes = 96ull << 20;
    EXPECT_EQ(maxBatchSearch("resnet20", "tf", mem_bytes, 256, 4),
              maxBatchSearch("resnet20", "tf", mem_bytes, 256));
}

} // namespace
} // namespace sentinel::harness
