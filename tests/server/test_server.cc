#include <gtest/gtest.h>

#include "mem/page.hh"
#include "server/server.hh"
#include "telemetry/session.hh"

namespace sentinel::server {
namespace {

constexpr std::uint64_t MB = 1ull << 20;

ServerConfig
nodeConfig(std::uint64_t fast_mb = 64)
{
    ServerConfig cfg;
    cfg.fast_bytes = fast_mb * MB;
    cfg.default_steps = 6;
    cfg.default_warmup = 2;
    return cfg;
}

JobSpec
job(const std::string &model, double quota, Tick arrival = 0,
    int prio = 1)
{
    JobSpec s;
    s.model = model;
    s.batch = 4;
    s.quota_fraction = quota;
    s.arrival = arrival;
    s.priority = prio;
    return s;
}

// A job alone on the node, with a quota that holds its whole working
// set under fast-only: no migration demand, so every co-located step
// must equal its solo step exactly — timing included.
TEST(Server, SingleResidentJobMatchesSoloExactly)
{
    ServerConfig cfg = nodeConfig();
    JobSpec s = job("synthetic:9", 0.5);
    s.policy = "fast-only";
    ServerResult r = runServer(cfg, { s });
    ASSERT_EQ(r.jobs.size(), 1u);
    const JobResult &j = r.jobs[0];
    ASSERT_EQ(j.status, JobStatus::Completed) << j.detail;
    EXPECT_EQ(j.admit, 0);
    EXPECT_EQ(j.slo.queue_wait_ms, 0.0);
    ASSERT_EQ(j.step_durations.size(), j.solo_steps.size());
    for (std::size_t k = 0; k < j.step_durations.size(); ++k)
        EXPECT_EQ(j.step_durations[k], j.solo_steps[k].step_time);
    EXPECT_EQ(j.slo.throttle_ms, 0.0);
    EXPECT_DOUBLE_EQ(j.slo.slowdown, 1.0);
    EXPECT_EQ(r.promoted_bytes, 0u);
    EXPECT_EQ(r.admitted, 1);
    EXPECT_EQ(r.makespan, j.finish);
}

// A migrating job alone on the node: the arbiter serves its demand at
// the full channel rate concurrently with compute, so dilation stays
// bounded and every step is at least its solo length.
TEST(Server, SingleMigratingJobDilatesAtMostByItsOwnDma)
{
    ServerConfig cfg = nodeConfig();
    ServerResult r = runServer(cfg, { job("resnet32", 0.25) });
    const JobResult &j = r.jobs[0];
    ASSERT_EQ(j.status, JobStatus::Completed) << j.detail;
    for (std::size_t k = 0; k < j.step_durations.size(); ++k)
        EXPECT_GE(j.step_durations[k], j.solo_steps[k].step_time);
    EXPECT_GE(j.slo.throttle_ms, 0.0);
    EXPECT_GE(j.slo.slowdown, 1.0);
    std::uint64_t solo_promoted = 0;
    for (const auto &s : j.solo_steps)
        solo_promoted += s.promoted_bytes;
    EXPECT_EQ(r.promoted_bytes, solo_promoted);
}

TEST(Server, UnknownPolicyJobIsRejected)
{
    // An unknown policy is a rejected input, not an infeasible run.
    JobSpec bad = job("resnet32", 0.3);
    bad.policy = "tcmalloc";
    ServerResult r =
        runServer(nodeConfig(), { bad, job("synthetic:9", 0.3) });
    EXPECT_EQ(r.jobs[0].status, JobStatus::Rejected) << r.jobs[0].detail;
    EXPECT_NE(r.jobs[0].detail.find("tcmalloc"), std::string::npos)
        << r.jobs[0].detail;
    EXPECT_EQ(r.jobs[1].status, JobStatus::Completed) << r.jobs[1].detail;
}

TEST(Server, ExactQuotaPackingAdmitsBothHalves)
{
    ServerConfig cfg = nodeConfig();
    ServerResult r = runServer(
        cfg, { job("synthetic:9", 0.5), job("synthetic:123", 0.5) });
    ASSERT_EQ(r.admitted, 2);
    // Both quotas fit exactly: simultaneous admission at t=0, and the
    // node was momentarily full.
    EXPECT_EQ(r.jobs[0].admit, 0);
    EXPECT_EQ(r.jobs[1].admit, 0);
    EXPECT_EQ(r.peak_committed, cfg.fast_bytes);
}

TEST(Server, FifoHeadOfLineBlocksUntilRelease)
{
    ServerConfig cfg = nodeConfig();
    // Two 60%-quota jobs: the second waits for the first to finish.
    ServerResult r = runServer(
        cfg, { job("synthetic:9", 0.6), job("synthetic:123", 0.6) });
    ASSERT_EQ(r.admitted, 2);
    EXPECT_EQ(r.jobs[0].admit, 0);
    EXPECT_EQ(r.jobs[1].admit, r.jobs[0].finish);
    EXPECT_GT(r.jobs[1].slo.queue_wait_ms, 0.0);
    // Quota released exactly once: peak is one job, not both.
    EXPECT_LE(r.peak_committed, cfg.fast_bytes);
}

TEST(Server, OversizedQuotaRejectedAtSubmit)
{
    ServerConfig cfg = nodeConfig();
    ServerResult r = runServer(
        cfg, { job("synthetic:9", 0.4), job("synthetic:123", 1.0) });
    // quota=1.0 resolves to the whole node and is admissible; push a
    // byte quota over the top instead.
    JobSpec over = job("synthetic:123", 0.5);
    over.quota_bytes = cfg.fast_bytes + MB;
    ServerResult r2 = runServer(cfg, { job("synthetic:9", 0.4), over });
    EXPECT_EQ(r.admitted, 2);
    EXPECT_EQ(r2.admitted, 1);
    EXPECT_EQ(r2.rejected, 1);
    EXPECT_EQ(r2.jobs[1].status, JobStatus::Rejected);
    EXPECT_NE(r2.jobs[1].detail.find("capacity"), std::string::npos);
    // The rejected job never entered the node.
    EXPECT_EQ(r2.jobs[1].admit, -1);
}

// --chaos capacity fault: the job's quota shrinks mid-run inside its
// own simulation.  The server must carry the chaos through phase 1
// untouched and still complete the job under co-location.
TEST(Server, QuotaShrinkUnderChaosCompletes)
{
    ServerConfig cfg = nodeConfig();
    JobSpec faulty = job("resnet32", 0.4);
    faulty.chaos = "shrink:step=3,factor=0.5";
    ServerResult r = runServer(cfg, { faulty, job("synthetic:9", 0.3) });
    ASSERT_EQ(r.admitted, 2) << r.jobs[0].detail;
    const JobResult &j = r.jobs[0];
    ASSERT_EQ(j.status, JobStatus::Completed) << j.detail;
    for (std::size_t k = 0; k < j.step_durations.size(); ++k)
        EXPECT_GE(j.step_durations[k], j.solo_steps[k].step_time);
    // The shrink applies inside the job's private memory system; its
    // admission quota on the node is unchanged.
    EXPECT_EQ(j.quota_bytes,
              mem::roundUpToPages(static_cast<std::uint64_t>(
                  0.4 * static_cast<double>(cfg.fast_bytes))));
    EXPECT_LE(r.peak_committed, cfg.fast_bytes);
}

// Priority is the arbiter weight base: with identical traffic, the
// high-priority tenant loses less time to bandwidth sharing.
TEST(Server, HighPriorityJobThrottledLessThanLowPriority)
{
    ServerConfig cfg = nodeConfig(32);
    // Same model, same small quota (forced migration), simultaneous
    // arrival; only priority differs.
    ServerResult r = runServer(cfg, { job("resnet32", 0.35, 0, 8),
                                      job("resnet32", 0.35, 0, 1) });
    ASSERT_EQ(r.admitted, 2);
    const JobResult &hi = r.jobs[0];
    const JobResult &lo = r.jobs[1];
    // Both migrate (the point of the small quota)...
    EXPECT_GT(r.promoted_bytes, 0u);
    // ...and the boosted tenant is throttled no worse.
    EXPECT_LE(hi.slo.throttle_ms, lo.slo.throttle_ms);
}

TEST(Server, SerialAndParallelPhase1AreBitIdentical)
{
    ServerConfig serial = nodeConfig();
    ServerConfig parallel = nodeConfig();
    parallel.jobs = 4;
    std::vector<JobSpec> specs = { job("resnet32", 0.3),
                                   job("synthetic:9", 0.25, kMsec),
                                   job("synthetic:123", 0.3, 2 * kMsec),
                                   job("resnet20", 0.25, 0, 2) };
    ServerResult a = runServer(serial, specs);
    ServerResult b = runServer(parallel, specs);
    EXPECT_EQ(a.summary(), b.summary());
    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    for (std::size_t j = 0; j < a.jobs.size(); ++j) {
        EXPECT_EQ(a.jobs[j].step_durations, b.jobs[j].step_durations);
        EXPECT_EQ(a.jobs[j].admit, b.jobs[j].admit);
        EXPECT_EQ(a.jobs[j].finish, b.jobs[j].finish);
    }
    EXPECT_EQ(a.promoted_bytes, b.promoted_bytes);
    EXPECT_EQ(a.demoted_bytes, b.demoted_bytes);
    EXPECT_EQ(a.makespan, b.makespan);
}

TEST(Server, InfeasibleAndUnsupportedJobsAreIsolated)
{
    ServerConfig cfg = nodeConfig();
    // A one-page quota violates the harness's fast-tier preconditions:
    // the job is turned away with a reason, and only that job.
    JobSpec tiny = job("resnet32", 0.5);
    tiny.quota_bytes = mem::kPageSize;
    ServerResult r = runServer(cfg, { tiny, job("synthetic:9", 0.3) });
    EXPECT_EQ(r.admitted, 1);
    EXPECT_EQ(r.rejected, 1);
    EXPECT_NE(r.jobs[0].status, JobStatus::Completed);
    EXPECT_EQ(r.jobs[1].status, JobStatus::Completed);
    // The healthy job is unaffected: solo == co-located traffic.
    std::uint64_t solo_promoted = 0;
    for (const auto &s : r.jobs[1].solo_steps)
        solo_promoted += s.promoted_bytes;
    EXPECT_EQ(r.promoted_bytes, solo_promoted);
}

TEST(Server, TelemetryCountersPublished)
{
    telemetry::Session session;
    ServerConfig cfg = nodeConfig();
    cfg.telemetry = &session;
    ServerResult r = runServer(cfg, { job("synthetic:9", 0.5) });
    EXPECT_EQ(session.metrics().counter("server.jobs_admitted").value(),
              static_cast<std::uint64_t>(r.admitted));
    EXPECT_EQ(session.metrics().counter("server.promoted_bytes").value(),
              r.promoted_bytes);
}

TEST(Server, RejectsBrokenConfigs)
{
    std::vector<JobSpec> one = { job("synthetic:9", 0.5) };
    ServerConfig cfg = nodeConfig();
    cfg.fast_bytes = 0;
    EXPECT_THROW(runServer(cfg, one), harness::ConfigError);
    cfg = nodeConfig();
    EXPECT_THROW(runServer(cfg, {}), harness::ConfigError);
    cfg.headroom = 0.9;
    EXPECT_THROW(runServer(cfg, one), harness::ConfigError);
    cfg = nodeConfig();
    cfg.demand_fault_boost = 0.5;
    EXPECT_THROW(runServer(cfg, one), harness::ConfigError);
    cfg = nodeConfig();
    cfg.default_warmup = 6;
    EXPECT_THROW(runServer(cfg, one), harness::ConfigError);
}

TEST(Server, SummaryIsStableAndComplete)
{
    ServerConfig cfg = nodeConfig();
    std::vector<JobSpec> specs = { job("synthetic:9", 0.4),
                                   job("synthetic:123", 0.4, kMsec) };
    ServerResult r = runServer(cfg, specs);
    std::string s1 = r.summary();
    std::string s2 = runServer(cfg, specs).summary();
    EXPECT_EQ(s1, s2);
    EXPECT_NE(s1.find("synthetic:9#0"), std::string::npos);
    EXPECT_NE(s1.find("synthetic:123#1"), std::string::npos);
    EXPECT_NE(s1.find("admitted 2"), std::string::npos);
    EXPECT_NE(s1.find("node DMA"), std::string::npos);
}

} // namespace
} // namespace sentinel::server
