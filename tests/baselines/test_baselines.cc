#include <gtest/gtest.h>

#include "baselines/autotm.hh"
#include "baselines/capuchin.hh"
#include "baselines/ial.hh"
#include "baselines/memory_mode.hh"
#include "baselines/reference.hh"
#include "baselines/swapadvisor.hh"
#include "baselines/unified_memory.hh"
#include "baselines/vdnn.hh"
#include "core/runtime.hh"
#include "harness/experiment.hh"
#include "models/registry.hh"
#include "profile/profiler.hh"
#include "sim/trace.hh"
#include "support/one_page_policy.hh"
#include "support/test_graphs.hh"
#include "telemetry/attribution.hh"
#include "telemetry/session.hh"

namespace sentinel::baselines {
namespace {

struct Rig {
    df::Graph graph;
    core::RuntimeConfig cfg;
    prof::ProfileResult profile;
    mem::HeterogeneousMemory hm;

    explicit Rig(std::uint64_t fast_bytes,
                 df::Graph g = sentinel::testing::makeToyGraph())
        : graph(std::move(g)),
          cfg(core::RuntimeConfig::optane(fast_bytes)),
          profile(core::profileStep(graph, cfg)),
          hm(cfg.tierChain(), cfg.linkChain())
    {
    }

    df::StepStats
    steady(df::MemoryPolicy &policy, int steps = 6)
    {
        df::Executor ex(graph, hm, cfg.exec, policy);
        return ex.run(steps).back();
    }
};

// ---------------------------------------------------------------- IAL

TEST(Ial, PromotesHotPagesAfterThreshold)
{
    Rig rig(128 * 1024);
    IalPolicy policy(/*threshold=*/2);
    df::StepStats s = rig.steady(policy);
    EXPECT_GT(policy.promotionsRequested(), 0u);
    EXPECT_GT(s.promoted_bytes, 0u);
}

TEST(Ial, EvictsFifoWhenFastFills)
{
    Rig rig(128 * 1024); // tiny fast tier forces churn
    IalPolicy policy;
    df::StepStats s = rig.steady(policy);
    EXPECT_GT(s.demoted_bytes, 0u);
    // FIFO churn: bytes keep moving every steady step.
    EXPECT_GT(s.promoted_bytes + s.demoted_bytes, 0u);
}

TEST(Ial, HintFaultsExposeTime)
{
    Rig rig(128 * 1024);
    IalPolicy policy;
    df::StepStats s = rig.steady(policy);
    EXPECT_GT(s.exposed_migration, 0);
}

TEST(Ial, StaleFifoEntryOfReallocatedPageIsTheOneEvicted)
{
    // Drive the hooks by hand on an idle executor over a 3-page fast
    // tier: pages p0, p1, p2 are one-page tensors, noted in that order.
    constexpr std::uint64_t kPage = mem::kPageSize;
    Rig rig(3 * kPage);
    IalPolicy policy;
    df::Executor ex(rig.graph, rig.hm, rig.cfg.exec, policy);
    mem::HeterogeneousMemory &hm = rig.hm;
    const mem::PageId p0 = 100, p1 = 101, p2 = 102;
    auto map = [&](mem::PageId p, mem::Tier tier) {
        hm.mapRange(p, 1, tier);
        policy.onTensorAllocated(ex, 0, df::TensorPlacement{ p * kPage,
                                                             kPage });
    };
    auto unmap = [&](mem::PageId p) {
        policy.onRangeUnmapped(ex, mem::PageRun{ p, 1 });
        hm.unmapRange(p, 1, ex.now());
    };
    auto touch = [&](mem::PageId p) {
        std::vector<df::AccessSegment> segs;
        policy.onRangeAccess(ex, mem::PageRun{ p, 1 }, false, segs);
    };
    map(p0, mem::Tier::Fast);
    map(p1, mem::Tier::Fast);
    map(p2, mem::Tier::Fast);

    // Free p0 while its entry is queued; it comes back in slow memory,
    // gathers heat, is freed again (heat forgotten), and is re-allocated
    // in fast memory, queued behind p2 as well.
    unmap(p0);
    map(p0, mem::Tier::Slow);
    touch(p0);
    touch(p0);
    EXPECT_EQ(policy.slowTouches(p0), 2);
    unmap(p0);
    EXPECT_EQ(policy.slowTouches(p0), 0);
    map(p0, mem::Tier::Fast);
    EXPECT_EQ(policy.slowTouches(p0), 0);
    touch(p0); // fast-resident: no hint fault
    EXPECT_EQ(policy.slowTouches(p0), 0);
    ASSERT_EQ(hm.tier(mem::Tier::Fast).free(), 0u);

    // A 2-page allocation evicts from the head: p0's OLD entry (it is
    // on the list again) and p1, in that order.
    policy.allocate(ex, df::TensorDesc{ 0, "a", 2 * kPage,
                                        df::TensorKind::Activation });
    EXPECT_TRUE(hm.inFlight(p0, ex.now()));
    EXPECT_TRUE(hm.inFlight(p1, ex.now()));
    EXPECT_FALSE(hm.inFlight(p2, ex.now()));
    EXPECT_LT(hm.arrivalTime(p0), hm.arrivalTime(p1));

    // Next comes p2; p0's newer entry was consumed with the old one.
    policy.allocate(ex, df::TensorDesc{ 1, "b", kPage,
                                        df::TensorKind::Activation });
    EXPECT_TRUE(hm.inFlight(p2, ex.now()));
    EXPECT_LT(hm.arrivalTime(p1), hm.arrivalTime(p2));
    EXPECT_EQ(hm.stats().demoted_pages, 3u);
}

/** One IAL run's observations, batched or through the reference. */
struct IalObserved {
    std::vector<df::StepStats> stats;
    std::uint64_t promotions = 0;
    std::uint64_t stall_events = 0; ///< Stall events in the ring
    telemetry::Session session{ { true, 1u << 18 } };
    telemetry::AttributionEngine attr;
};

/**
 * Run IAL on @p cfg's model and sized chain.  The @p reference run
 * goes through the one-page hook with a trace recorder attached, under
 * which IAL resolves every hint fault alone through its one-page fault
 * path: page by page, the way it did before faults were batched.
 */
std::unique_ptr<IalObserved>
observeIal(const harness::ExperimentConfig &cfg, int threshold,
           Tick hint_fault_cost, bool reference)
{
    auto out = std::make_unique<IalObserved>();
    harness::Run sized(cfg, "ial"); // the model and its sized chain
    const core::RuntimeConfig &rc = sized.platform();
    mem::HeterogeneousMemory hm(rc.tierChain(), rc.linkChain());
    IalPolicy ial(threshold, hint_fault_cost);
    sentinel::testing::OnePagePolicy one_page(ial);
    df::Executor ex(sized.graph(), hm, rc.exec,
                    reference ? static_cast<df::MemoryPolicy &>(one_page)
                              : ial);
    sim::TraceRecorder trace(kMsec);
    if (reference)
        ex.setTraceRecorder(&trace);
    hm.setTelemetry(&out->session);
    ex.setTelemetry(&out->session);
    hm.setAttribution(&out->attr);
    ex.setAttribution(&out->attr);
    out->stats = ex.run(cfg.steps);
    out->promotions = ial.promotionsRequested();
    for (const telemetry::Event &e : out->session.events().snapshot())
        out->stall_events += e.type == telemetry::EventType::Stall;
    return out;
}

TEST(Ial, BatchedHintFaultsMatchPerPageFaults)
{
    // Below-threshold hint faults batch into one segment per run; the
    // reference resolves every fault alone, one page per hook call.
    // Both must agree field for field, with exact attribution and a
    // matching event stream.
    struct Case {
        const char *model;
        int batch;
        int tiers;
        int threshold;
        Tick hint_fault_cost;
    };
    const Case cases[] = {
        { "resnet32", 8, 2, 4, 250 },
        { "llm:tiny", 2, 3, 4, 250 },
        { "resnet32", 8, 2, 1, 250 },
        { "resnet32", 8, 2, 4, 0 },
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(::testing::Message()
                     << c.model << " tiers=" << c.tiers
                     << " threshold=" << c.threshold
                     << " hint_fault_cost=" << c.hint_fault_cost);
        harness::ExperimentConfig cfg;
        cfg.model = c.model;
        cfg.batch = c.batch;
        cfg.tiers = c.tiers;
        cfg.fast_fraction = 0.1; // tight: FIFO eviction runs
        cfg.steps = 3;
        cfg.warmup = 0;
        auto run = observeIal(cfg, c.threshold, c.hint_fault_cost, false);
        auto ref = observeIal(cfg, c.threshold, c.hint_fault_cost, true);

        ASSERT_EQ(run->stats.size(), ref->stats.size());
        std::uint64_t demoted = 0;
        for (std::size_t i = 0; i < run->stats.size(); ++i) {
            SCOPED_TRACE(::testing::Message() << "step " << i);
            const df::StepStats &a = run->stats[i];
            const df::StepStats &b = ref->stats[i];
            EXPECT_EQ(a.step_time, b.step_time);
            EXPECT_EQ(a.compute_time, b.compute_time);
            EXPECT_EQ(a.mem_time, b.mem_time);
            EXPECT_EQ(a.exposed_migration, b.exposed_migration);
            EXPECT_EQ(a.fault_overhead, b.fault_overhead);
            EXPECT_EQ(a.recompute_time, b.recompute_time);
            EXPECT_EQ(a.policy_time, b.policy_time);
            EXPECT_EQ(a.bytes_fast, b.bytes_fast);
            EXPECT_EQ(a.bytes_slow, b.bytes_slow);
            EXPECT_EQ(a.slow_bytes_by_kind, b.slow_bytes_by_kind);
            EXPECT_EQ(a.promoted_bytes, b.promoted_bytes);
            EXPECT_EQ(a.demoted_bytes, b.demoted_bytes);
            EXPECT_EQ(a.peak_fast_used, b.peak_fast_used);
            EXPECT_EQ(a.peak_tier_used, b.peak_tier_used);
            EXPECT_EQ(a.num_stalls, b.num_stalls);
            demoted += a.demoted_bytes;
        }
        EXPECT_EQ(run->promotions, ref->promotions);
        for (const IalObserved *o : { run.get(), ref.get() }) {
            EXPECT_EQ(o->session.events().dropped(), 0u);
            EXPECT_TRUE(o->attr.allExact());
            std::string why;
            EXPECT_TRUE(o->attr.crossCheckEvents(o->session.events(), &why))
                << why;
        }

        // Non-vacuous: pages were promoted and evicted, and (with a
        // cost and a threshold above one) faults really were batched.
        EXPECT_GT(run->promotions, 0u);
        EXPECT_GT(demoted, 0u);
        if (c.threshold > 1 && c.hint_fault_cost > 0) {
            EXPECT_LT(run->stall_events, ref->stall_events);
        }
    }
}

// --------------------------------------------------------- Memory Mode

TEST(MemoryMode, EverythingServedThroughTheCache)
{
    Rig rig(128 * 1024);
    MemoryModePolicy policy(128 * 1024);
    df::StepStats s = rig.steady(policy);
    // All accesses are effective-fast (served from the DRAM cache)...
    EXPECT_EQ(s.bytes_slow, 0u);
    // ...but misses exposed their fill costs.
    EXPECT_GT(s.exposed_migration, 0);
    EXPECT_GT(policy.cache().misses(), 0u);
    EXPECT_GT(policy.cache().hitRate(), 0.0);
}

TEST(MemoryMode, BiggerCacheMissesLess)
{
    Rig rig1(1ull << 20);
    MemoryModePolicy small_cache(256 * 1024);
    df::StepStats a = rig1.steady(small_cache);

    Rig rig2(1ull << 20);
    MemoryModePolicy big_cache(16ull << 20);
    df::StepStats b = rig2.steady(big_cache);
    EXPECT_LT(b.exposed_migration, a.exposed_migration);
    EXPECT_GT(big_cache.cache().hitRate(),
              small_cache.cache().hitRate());
}

// ------------------------------------------------------------------ UM

TEST(UnifiedMemory, FaultsOnDemand)
{
    Rig rig(128 * 1024);
    UnifiedMemoryPolicy policy;
    df::StepStats s = rig.steady(policy);
    EXPECT_GT(policy.demandFaults(), 0u);
    EXPECT_GT(s.exposed_migration, 0);
}

TEST(UnifiedMemory, NoFaultsWhenEverythingFits)
{
    Rig rig(64ull << 20);
    UnifiedMemoryPolicy policy;
    df::StepStats s = rig.steady(policy);
    EXPECT_EQ(policy.demandFaults(), 0u);
    EXPECT_EQ(s.exposed_migration, 0);
    EXPECT_EQ(s.bytes_slow, 0u);
}

// -------------------------------------------------------------- AutoTM

TEST(AutoTm, PinsHotTensorsWhenMemoryIsAmple)
{
    sentinel::testing::ToyGraphIds ids;
    Rig rig(64ull << 20, sentinel::testing::makeToyGraph(&ids));
    AutoTmPolicy policy(rig.profile.db);
    df::StepStats s = rig.steady(policy);
    // Plenty of fast memory: everything pins, nothing moves, nothing
    // is slow.
    EXPECT_EQ(s.bytes_slow, 0u);
    EXPECT_EQ(policy.placementOf(ids.w0), Placement::PinFast);
}

TEST(AutoTm, SwapsOrSlowsUnderPressure)
{
    sentinel::testing::ToyGraphIds ids;
    Rig rig(128 * 1024, sentinel::testing::makeToyGraph(&ids));
    AutoTmPolicy policy(rig.profile.db);
    df::StepStats s = rig.steady(policy);
    // Under pressure something must give: either migration volume
    // (Swap placements, with synchronous exposure) or slow accesses.
    EXPECT_GT(s.promoted_bytes + s.bytes_slow, 0u);
}

TEST(AutoTm, UseEpisodesGrouping)
{
    EXPECT_EQ(useEpisodes({ 1, 2, 3 }),
              (std::vector<std::pair<int, int>>{ { 1, 3 } }));
    EXPECT_EQ(useEpisodes({ 1, 2, 7, 8 }),
              (std::vector<std::pair<int, int>>{ { 1, 2 }, { 7, 8 } }));
    EXPECT_EQ(useEpisodes({ 5 }),
              (std::vector<std::pair<int, int>>{ { 5, 5 } }));
    EXPECT_EQ(useEpisodes({ 0, 2, 4 }),
              (std::vector<std::pair<int, int>>{
                  { 0, 0 }, { 2, 2 }, { 4, 4 } }));
    EXPECT_TRUE(useEpisodes({}).empty());
}

TEST(AutoTm, TransientLedgerCoversGradsAndTemps)
{
    Rig rig(1ull << 20);
    auto ledger = transientLedger(rig.profile.db);
    ASSERT_EQ(ledger.size(),
              static_cast<std::size_t>(rig.graph.numLayers()));
    std::uint64_t total = 0;
    for (auto b : ledger)
        total += b;
    EXPECT_GT(total, 0u);
}

// ---------------------------------------------------------------- vDNN

TEST(Vdnn, SupportsOnlyConvGraphs)
{
    df::Graph resnet = models::makeModel("resnet20", 2);
    EXPECT_TRUE(VdnnPolicy::supports(resnet));
    // Recursive / attention structures have no convolution backbone.
    df::Graph lstm = models::makeModel("lstm", 2);
    EXPECT_FALSE(VdnnPolicy::supports(lstm));
    df::Graph bert = models::makeModel("bert_base", 1);
    EXPECT_FALSE(VdnnPolicy::supports(bert));
}

TEST(Vdnn, OffloadsConvInputs)
{
    df::Graph resnet = models::makeModel("resnet20", 2);
    std::uint64_t fast =
        mem::roundUpToPages(resnet.peakMemoryBytes() / 2);
    Rig rig(fast, models::makeModel("resnet20", 2));
    VdnnPolicy policy;
    df::StepStats s = rig.steady(policy);
    // Conv inputs move out and back.
    EXPECT_GT(s.demoted_bytes, 0u);
    EXPECT_GT(s.promoted_bytes, 0u);
}

// --------------------------------------------------------- SwapAdvisor

TEST(SwapAdvisor, DeterministicForFixedSeed)
{
    Rig rig1(128 * 1024);
    SwapAdvisorPolicy p1(rig1.profile.db);
    df::StepStats a = rig1.steady(p1);

    Rig rig2(128 * 1024);
    SwapAdvisorPolicy p2(rig2.profile.db);
    df::StepStats b = rig2.steady(p2);
    EXPECT_EQ(a.step_time, b.step_time);
    EXPECT_EQ(a.promoted_bytes, b.promoted_bytes);
}

TEST(SwapAdvisor, SearchOverheadCharged)
{
    Rig rig(1ull << 20);
    SwapAdvisorPolicy policy(rig.profile.db);
    df::StepStats s = rig.steady(policy);
    EXPECT_GT(s.policy_time, 0);
    EXPECT_GT(policy.decisionTimeEstimate(), 0);
}

// ------------------------------------------------------------ Capuchin

TEST(Capuchin, RecomputesWhenSwapCannotHide)
{
    // Tight memory + slow link: swaps cannot hide, activations are
    // recomputed instead.
    df::Graph g = models::makeModel("resnet20", 8);
    std::uint64_t fast = mem::roundUpToPages(g.peakMemoryBytes() / 6);
    Rig rig(fast, models::makeModel("resnet20", 8));
    CapuchinPolicy policy(rig.profile.db);
    df::StepStats s = rig.steady(policy);
    if (policy.recomputeCount() > 0) {
        EXPECT_GT(s.recompute_time, 0);
    }
    // Either way the policy must run to steady state.
    EXPECT_GT(s.step_time, 0);
}

TEST(Capuchin, NoRecomputeWhenMemoryIsAmple)
{
    Rig rig(64ull << 20);
    CapuchinPolicy policy(rig.profile.db);
    df::StepStats s = rig.steady(policy);
    EXPECT_EQ(policy.recomputeCount(), 0u);
    EXPECT_EQ(s.recompute_time, 0);
}

// ----------------------------------------------------------- Reference

TEST(Reference, NamesAndTiers)
{
    EXPECT_EQ(makeFastOnly()->name(), "fast-only");
    EXPECT_EQ(makeSlowOnly()->name(), "slow-only");
    EXPECT_EQ(makeFirstTouchNuma()->name(), "first-touch-numa");
}

TEST(Reference, FirstTouchSpillsToSlow)
{
    Rig rig(128 * 1024);
    auto policy = makeFirstTouchNuma();
    df::StepStats s = rig.steady(*policy);
    EXPECT_GT(s.bytes_fast, 0u);
    EXPECT_GT(s.bytes_slow, 0u);
    EXPECT_EQ(s.promoted_bytes, 0u); // never migrates
    EXPECT_EQ(s.demoted_bytes, 0u);
}

} // namespace
} // namespace sentinel::baselines
