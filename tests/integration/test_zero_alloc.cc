/**
 * @file
 * The zero-allocation guard: a warm steady-state sentinel step must
 * not touch the heap.
 *
 * The hot loop's scratch buffers (the policy's migration batch and
 * prefetch ring, the executor's segment lists, the migration engine's
 * pending-run heap and index, the SoA page-table chunks, IAL's page
 * directory, active list and victim batch) are all grown during warmup
 * and reused afterwards; this test pins that property
 * with the counting operator new from sentinel_alloc_hook.  Linked
 * only into this binary — see common/alloc_hook.hh for the contract.
 * Under sanitizers the hook compiles away and the test skips.
 */

#include <gtest/gtest.h>

#include "baselines/ial.hh"
#include "common/alloc_hook.hh"
#include "core/sentinel_policy.hh"
#include "dataflow/executor.hh"
#include "harness/experiment.hh"
#include "mem/hm.hh"
#include "models/registry.hh"
#include "profile/profiler.hh"
#include "telemetry/session.hh"
#include "telemetry/timeseries.hh"

using namespace sentinel;

namespace {

mem::HeterogeneousMemory
makeHm(std::uint64_t fast_bytes)
{
    mem::TierParams fast{ "dram", fast_bytes, 76e9, 50e9, 85, 90 };
    mem::TierParams slow{ "pmm", 64ull << 30, 30e9, 10e9, 300, 120 };
    return mem::HeterogeneousMemory({ fast, slow }, { { 8e9, 6e9, 2000 } });
}

TEST(ZeroAlloc, SentinelSteadyStateStepDoesNotAllocate)
{
    if (!common::allocHookActive())
        GTEST_SKIP() << "counting allocator not linked (sanitizer build)";

    df::Graph g = models::makeModel("resnet20", 8);
    std::uint64_t fast = mem::roundUpToPages(g.peakMemoryBytes() / 5);
    auto prof_hm = makeHm(fast);
    prof::Profiler profiler;
    auto profile = profiler.profile(g, prof_hm, df::ExecParams{});

    auto hm = makeHm(fast);
    core::SentinelPolicy policy(profile.db);
    df::Executor ex(g, hm, df::ExecParams{}, policy);

    // Warmup covers the cold start, Sentinel's test-and-trial steps,
    // and every amortized container growth (scratch vectors reach
    // their high-water marks within a couple of steady steps).
    ex.run(8);

    std::uint64_t before = common::allocCount();
    for (int i = 0; i < 50; ++i)
        ex.runStep();
    std::uint64_t after = common::allocCount();
    EXPECT_EQ(after - before, 0u)
        << (after - before) << " heap allocations across 50 warm steps";
}

TEST(ZeroAlloc, LiveObservabilityPlaneDoesNotAllocateInSteadyState)
{
    if (!common::allocHookActive())
        GTEST_SKIP() << "counting allocator not linked (sanitizer build)";

    df::Graph g = models::makeModel("resnet20", 8);
    std::uint64_t fast = mem::roundUpToPages(g.peakMemoryBytes() / 5);
    auto prof_hm = makeHm(fast);
    prof::Profiler profiler;
    auto profile = profiler.profile(g, prof_hm, df::ExecParams{});

    auto hm = makeHm(fast);
    core::SentinelPolicy policy(profile.db);
    df::Executor ex(g, hm, df::ExecParams{}, policy);

    // The live plane attached: event ring + metric registry + step
    // board.  The board's rings are sized at construction, so the
    // executor's per-step feed (pushes into eight series plus the
    // percentile sketches) must stay off the heap; only SCRAPES
    // (render/snapshot) may allocate, and none happen inside the loop.
    telemetry::Session session;
    telemetry::StepBoard board;
    session.attachStepBoard(&board);
    ex.setTelemetry(&session);

    ex.run(8);

    std::uint64_t before = common::allocCount();
    for (int i = 0; i < 50; ++i)
        ex.runStep();
    std::uint64_t after = common::allocCount();
    EXPECT_EQ(after - before, 0u)
        << (after - before)
        << " heap allocations across 50 warm steps with the "
           "observability plane enabled";
    EXPECT_EQ(board.steps(), 58u); // the board really was fed
}

/** Heap allocations across @p steps warm Sentinel steps of @p cfg. */
std::uint64_t
warmStepAllocs(const harness::ExperimentConfig &cfg, int steps)
{
    harness::Run run(cfg, "sentinel");
    df::Executor &ex = run.executor();
    ex.run(8);
    std::uint64_t before = common::allocCount();
    for (int i = 0; i < steps; ++i)
        ex.runStep();
    return common::allocCount() - before;
}

TEST(ZeroAlloc, MobilenetSentinelSteadyStateDoesNotAllocate)
{
    if (!common::allocHookActive())
        GTEST_SKIP() << "counting allocator not linked (sanitizer build)";
    harness::ExperimentConfig cfg;
    cfg.model = "mobilenet";
    EXPECT_EQ(warmStepAllocs(cfg, 20), 0u);
}

TEST(ZeroAlloc, ThreeTierLlmSentinelSteadyStateDoesNotAllocate)
{
    if (!common::allocHookActive())
        GTEST_SKIP() << "counting allocator not linked (sanitizer build)";
    // Staged prefetch: two-leg runs through the middle tier.
    harness::ExperimentConfig cfg;
    cfg.model = "llm:tiny";
    cfg.tiers = 3;
    EXPECT_EQ(warmStepAllocs(cfg, 20), 0u);
}

TEST(ZeroAlloc, IntervalPlannerSentinelSteadyStateDoesNotAllocate)
{
    if (!common::allocHookActive())
        GTEST_SKIP() << "counting allocator not linked (sanitizer build)";
    // Sentinel co-allocation laid out by the offline interval planner.
    harness::ExperimentConfig cfg;
    cfg.model = "resnet32";
    cfg.planner = "interval";
    EXPECT_EQ(warmStepAllocs(cfg, 20), 0u);
}

TEST(ZeroAlloc, IalSteadyStateStepDoesNotAllocate)
{
    if (!common::allocHookActive())
        GTEST_SKIP() << "counting allocator not linked (sanitizer build)";
    // resnet32 on 2 tiers with 20% fast memory: every step evicts from
    // the active list and promotes hot pages.
    harness::ExperimentConfig cfg;
    cfg.model = "resnet32";
    harness::Run sized(cfg, "ial");
    const core::RuntimeConfig &rc = sized.platform();
    mem::HeterogeneousMemory hm(rc.tierChain(), rc.linkChain());
    baselines::IalPolicy policy;
    df::Executor ex(sized.graph(), hm, rc.exec, policy);
    ex.run(8);

    const std::uint64_t promoted = policy.promotionsRequested();
    const std::uint64_t demoted = hm.stats().demoted_pages;
    std::uint64_t before = common::allocCount();
    for (int i = 0; i < 20; ++i)
        ex.runStep();
    std::uint64_t after = common::allocCount();
    EXPECT_EQ(after - before, 0u)
        << (after - before) << " heap allocations across 20 warm steps";
    EXPECT_GT(policy.promotionsRequested(), promoted);
    EXPECT_GT(hm.stats().demoted_pages, demoted);
}

TEST(ZeroAlloc, InFlightRunTrimDoesNotAllocate)
{
    if (!common::allocHookActive())
        GTEST_SKIP() << "counting allocator not linked (sanitizer build)";
    // Map, migrate one run, free its middle while it is in flight (a
    // split: a second pending slot, an index insert, a heap push), then
    // let everything land.
    auto hm = makeHm(64 * mem::kPageSize);
    const mem::PageRun run[] = { { 0, 32 } };
    Tick now = 0;
    auto cycle = [&] {
        hm.mapRange(0, 32, mem::Tier::Slow);
        hm.migratePages(run, mem::Tier::Fast, now);
        hm.unmapRange(10, 8, now);
        now += kSec;
        hm.commitUpTo(now);
        hm.unmapRange(0, 10, now);
        hm.unmapRange(18, 14, now);
    };
    cycle();
    cycle();
    std::uint64_t before = common::allocCount();
    for (int i = 0; i < 20; ++i)
        cycle();
    std::uint64_t after = common::allocCount();
    EXPECT_EQ(after - before, 0u)
        << (after - before) << " heap allocations across 20 warm cycles";
    EXPECT_EQ(hm.tier(mem::Tier::Fast).used(), 0u);
    EXPECT_EQ(hm.tier(mem::Tier::Slow).used(), 0u);
}

} // namespace
