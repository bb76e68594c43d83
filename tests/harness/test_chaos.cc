/**
 * @file
 * Fault injection end to end: determinism of chaos runs, graceful
 * degradation of every policy under every fault kind, mid-training
 * re-planning quality, and the telemetry surface of the divergence
 * monitor.
 */

#include <string>

#include <gtest/gtest.h>

#include "core/runtime.hh"
#include "core/sentinel_policy.hh"
#include "harness/experiment.hh"
#include "mem/hm.hh"
#include "models/registry.hh"
#include "sim/fault_injector.hh"
#include "telemetry/chrome_trace.hh"
#include "telemetry/session.hh"

namespace sentinel::harness {
namespace {

ExperimentConfig
chaosConfig(const std::string &spec)
{
    ExperimentConfig cfg;
    cfg.model = "resnet20";
    cfg.batch = 8;
    cfg.steps = 12;
    cfg.warmup = 9;
    cfg.chaos = spec;
    return cfg;
}

/** Every field, doubles compared exactly: the simulation is a pure
 *  function of its inputs, so "close" would hide a real divergence. */
void
expectIdentical(const Metrics &a, const Metrics &b)
{
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.supported, b.supported);
    EXPECT_EQ(a.feasible, b.feasible);
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
    EXPECT_EQ(a.divergence_events, b.divergence_events);
    EXPECT_EQ(a.replans, b.replans);
    EXPECT_EQ(a.trial_decided, b.trial_decided);
    EXPECT_EQ(a.trial_state, b.trial_state);
}

TEST(Chaos, SameSeedIsBitIdenticalSerialAndParallel)
{
    ExperimentConfig cfg = chaosConfig(
        "bw:step=4,factor=0.4;jitter:step=2,amp=0.15;stall:step=6,ms=1");
    std::vector<SweepCell> cells;
    for (const auto &p : cpuPolicies())
        cells.push_back({ cfg, p });
    std::vector<Metrics> serial = runSweep(cells, 1);
    std::vector<Metrics> again = runSweep(cells, 1);
    std::vector<Metrics> par = runSweep(cells, 4);
    ASSERT_EQ(serial.size(), par.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        expectIdentical(serial[i], again[i]);
        expectIdentical(serial[i], par[i]);
    }
}

TEST(Chaos, SeedChangesTheJitterDraw)
{
    ExperimentConfig cfg = chaosConfig("jitter:step=0,amp=0.3");
    Metrics a = runExperiment(cfg, "sentinel");
    cfg.chaos_seed = 999;
    Metrics b = runExperiment(cfg, "sentinel");
    EXPECT_NE(a.step_time_ms, b.step_time_ms);
}

TEST(Chaos, EveryFaultKindEveryPolicyRunsToCompletion)
{
    // Property test: no injector may crash, deadlock, or wedge any
    // policy — worst case a run goes infeasible (OOM) and says so.
    const char *specs[] = {
        "bw:step=2,factor=0.3",     "stall:step=2,ms=1",
        "shrink:step=2,factor=0.6", "jitter:step=1,amp=0.3",
        "drift:step=2,factor=1.4",
    };
    for (const char *spec : specs) {
        ExperimentConfig cfg = chaosConfig(spec);
        cfg.steps = 10;
        cfg.warmup = 8;
        for (const auto &p : cpuPolicies()) {
            Metrics m = runExperiment(cfg, p);
            EXPECT_TRUE(m.supported) << spec << " x " << p;
            if (m.feasible) {
                EXPECT_GT(m.step_time_ms, 0.0) << spec << " x " << p;
            }
        }
    }
}

TEST(Chaos, ReplanConvergesNearFaultedProfileReference)
{
    // The recovery bar: after the monitor re-plans, the steady step
    // must come within 15% of a run whose *profile* was taken under
    // the faulted conditions (the best a profile-driven policy could
    // have done had it known).
    ExperimentConfig cfg =
        chaosConfig("bw:step=6,factor=0.15;shrink:step=6,factor=0.7");
    cfg.steps = 18;
    cfg.warmup = 12;
    StepTrace tr = runExperimentSteps(cfg, "sentinel");
    ASSERT_TRUE(tr.metrics.supported);
    ASSERT_EQ(tr.steps.size(), static_cast<std::size_t>(cfg.steps));
    EXPECT_GE(tr.metrics.replans, 1);
    EXPECT_GE(tr.metrics.divergence_events, 1);

    // Reference: the same degraded machine, profiled in that state.
    df::Graph g = models::makeModel(cfg.model, cfg.batch);
    std::uint64_t fast = mem::roundUpToPages(static_cast<std::uint64_t>(
        static_cast<double>(g.peakMemoryBytes()) * cfg.fast_fraction));
    core::RuntimeConfig rc = platformConfig(Platform::Optane, fast);
    rc.migration.promote_bw *= 0.15;
    rc.migration.demote_bw *= 0.15;
    rc.fast.capacity = static_cast<std::uint64_t>(
                           static_cast<double>(fast) * 0.7) /
                       mem::kPageSize * mem::kPageSize;
    auto profile = core::profileStep(g, rc);
    core::SentinelPolicy pol(profile.db, rc.sentinel);
    mem::HeterogeneousMemory hm(rc.tierChain(), rc.linkChain());
    df::Executor ex(g, hm, rc.exec, pol);
    auto stats = ex.run(cfg.steps);

    double ref = toMillis(stats.back().step_time);
    double post = toMillis(tr.steps.back().step_time);
    EXPECT_LE(post, ref * 1.15)
        << "post-replan steady " << post << " ms vs faulted-profile "
        << "reference " << ref << " ms";
}

TEST(Chaos, TraceExportContainsDivergenceAndReplanEvents)
{
    telemetry::TelemetryConfig tcfg;
    tcfg.enabled = true;
    telemetry::Session session(tcfg);
    ExperimentConfig cfg =
        chaosConfig("bw:step=6,factor=0.15;shrink:step=6,factor=0.7");
    cfg.steps = 18;
    cfg.warmup = 12;
    cfg.telemetry = &session;
    Metrics m = runExperiment(cfg, "sentinel");
    EXPECT_GE(m.divergence_events, 1);
    EXPECT_GE(m.replans, 1);
    std::string json = telemetry::chromeTraceJson(session.events());
    EXPECT_NE(json.find("divergence"), std::string::npos);
    EXPECT_NE(json.find("replan"), std::string::npos);
}

TEST(Chaos, TrialStateIsAlwaysConsistentlySurfaced)
{
    // S3: stats must never claim a decision that was not reached.
    const char *specs[] = {
        "",
        "stall:step=11,ms=8",
        "bw:step=9,factor=0.1",
        "bw:step=6,factor=0.15;shrink:step=6,factor=0.7",
    };
    bool saw_undecided = false;
    for (const char *spec : specs) {
        ExperimentConfig cfg = chaosConfig(spec);
        Metrics m = runExperiment(cfg, "sentinel");
        EXPECT_EQ(m.trial_decided, m.trial_state == "idle" ||
                                       m.trial_state == "decided")
            << spec << " -> " << m.trial_state;
        saw_undecided = saw_undecided || !m.trial_decided;
    }
    // At least one scenario (a late fault re-arming the trial) must
    // actually end mid-trial, or this test pins nothing.
    EXPECT_TRUE(saw_undecided);
}

} // namespace
} // namespace sentinel::harness
