/**
 * @file
 * Differential tests for the executor's run walk.
 *
 * The walk charges traffic, stalls, and profiling faults once per page
 * run; semantically that batching must be invisible.  Each test runs a
 * policy bare and wrapped in the test-only OnePagePolicy (one page per
 * onRangeAccess() call — the page-by-page interleaving) and requires
 * StepStats equal field for field, exact stall attribution on both
 * sides, and (when profiling) identical tracker counts.  The graph is
 * engineered to hit the awkward cases: multi-page tensors, odd
 * (non-page-multiple) traffic, pages shared by the packed layout, and
 * migrations still in flight in the middle of an accessed extent.
 */

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "alloc/arena.hh"
#include "dataflow/executor.hh"
#include "mem/access_tracker.hh"
#include "mem/hm.hh"
#include "support/one_page_policy.hh"
#include "telemetry/attribution.hh"

namespace sentinel::df {
namespace {

constexpr std::uint64_t kPage = mem::kPageSize;

/**
 * Packed slow-first layout that promotes a slice of the big weight
 * tensor at layer 0 and demotes part of it at layer 1 — with the
 * test's migration bandwidth those transfers are still in flight when
 * the ops touch the tensor, so accessed extents straddle in-flight
 * pages, tier changes, and landed pages all at once.
 */
class MigratingTestPolicy : public MemoryPolicy
{
  public:
    MigratingTestPolicy(TensorId weight, bool split_ranges)
        : weight_(weight), split_(split_ranges), arena_(0)
    {
    }

    std::string name() const override { return "migrating-test"; }

    AllocDecision
    allocate(Executor &, const TensorDesc &tensor) override
    {
        return { arena_.allocate(tensor.bytes, 64), mem::Tier::Slow };
    }

    void
    onTensorFreed(Executor &, TensorId,
                  const TensorPlacement &pl) override
    {
        arena_.free(pl.addr, pl.bytes);
    }

    void
    onLayerBegin(Executor &ex, int layer) override
    {
        if (!ex.isAllocated(weight_))
            return;
        mem::PageId first = ex.placementOf(weight_).firstPage();
        auto migrate = [&](std::initializer_list<std::uint64_t> offs,
                           mem::Tier to) {
            for (std::uint64_t o : offs)
                ex.hm().migratePage(first + o, to, ex.now());
        };
        if (layer == 0)
            migrate({ 2, 3, 4, 7 }, mem::Tier::Fast);
        else if (layer == 1)
            migrate({ 2, 3 }, mem::Tier::Slow);
    }

    void
    onRangeAccess(Executor &ex, mem::PageRun run, bool is_write,
                  std::vector<AccessSegment> &out) override
    {
        if (!split_) {
            MemoryPolicy::onRangeAccess(ex, run, is_write, out);
            return;
        }
        // Several segments from one call: cover the run in 3-page
        // pieces to exercise the executor's multi-segment loop.
        for (std::uint64_t done = 0; done < run.count;) {
            AccessSegment seg;
            seg.pages = std::min<std::uint64_t>(3, run.count - done);
            done += seg.pages;
            out.push_back(seg);
        }
    }

  private:
    TensorId weight_;
    bool split_;
    alloc::VirtualArena arena_;
};

struct TestGraph {
    Graph graph;
    TensorId weight;
    std::uint64_t traffic_per_step = 0;

    TestGraph() : graph("extent", 2), weight(0)
    {
        // A 10-page weight (the migration target), activations with
        // non-page-aligned sizes, and a short-lived temp; every
        // traffic count is chosen so traffic % npages != 0.
        weight = graph.addTensor("w", 10 * kPage, TensorKind::Weight,
                                 true);
        TensorId act = graph.addTensor("a", 5 * kPage + 123,
                                       TensorKind::Activation);
        TensorId tmp =
            graph.addTensor("t", 3 * kPage + 7, TensorKind::Temp);

        auto use = [this](TensorId id, bool is_write,
                          std::uint64_t traffic) {
            traffic_per_step += traffic;
            return TensorUse{ id, is_write, traffic, 1.0 };
        };
        graph.addOp("fwd", OpType::Other, 0, 1e6,
                    { use(weight, false, 7 * kPage + 1237),
                      use(act, true, 3 * kPage + 11) });
        graph.addOp("bwd", OpType::Other, 1, 1e6,
                    { use(weight, false, 9 * kPage + 13),
                      use(act, false, 2 * kPage + 999),
                      use(tmp, true, kPage + 1) });
        graph.finalize();
    }
};

mem::HeterogeneousMemory
makeHm()
{
    // Fast tier large enough for the promoted slice, migration slow
    // enough (4 GB/s, 2 us startup) that layer-begin transfers are
    // still in flight when the ops run.
    mem::TierParams fast{ "dram", 64ull << 20, 50e9, 40e9, 80, 80 };
    mem::TierParams slow{ "pmm", 1ull << 30, 6e9, 2e9, 300, 100 };
    mem::MigrationParams mig{ 4e9, 2e9, 2000 };
    return mem::HeterogeneousMemory({ fast, slow }, { mig });
}

/** What one run of the test graph observed. */
struct Observed {
    std::vector<StepStats> stats;
    telemetry::AttributionEngine attr;
    mem::AccessTracker tracker;
};

/**
 * Run the test graph for 3 steps under MigratingTestPolicy: split or
 * whole-run hook, bare or through the one-page reference, with or
 * without the profiling tracker attached.
 */
std::unique_ptr<Observed>
runCase(bool split_hook, bool one_page, bool profile = false)
{
    auto out = std::make_unique<Observed>();
    TestGraph tg;
    auto hm = makeHm();
    MigratingTestPolicy policy(tg.weight, split_hook);
    testing::OnePagePolicy reference(policy);
    Executor ex(tg.graph, hm, ExecParams{},
                one_page ? static_cast<MemoryPolicy &>(reference)
                         : policy);
    ex.setAttribution(&out->attr);
    if (profile)
        ex.setAccessTracker(&out->tracker);
    out->stats = ex.run(3);
    return out;
}

void
expectExactAttribution(const Observed &o)
{
    ASSERT_EQ(o.attr.steps().size(), o.stats.size());
    EXPECT_TRUE(o.attr.allExact());
    for (std::size_t i = 0; i < o.stats.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "step " << i);
        const auto &b = o.attr.steps()[i].bucket;
        const StepStats &s = o.stats[i];
        EXPECT_EQ(b.total(), s.step_time);
        EXPECT_EQ(b.exposedMigration(), s.exposed_migration);
        EXPECT_EQ(b.component(telemetry::AttrComponent::Fault),
                  s.fault_overhead);
        EXPECT_EQ(b.stall_events, s.num_stalls);
    }
}

void
expectSameStats(const std::vector<StepStats> &a,
                const std::vector<StepStats> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "step " << i);
        EXPECT_EQ(a[i].step_time, b[i].step_time);
        EXPECT_EQ(a[i].compute_time, b[i].compute_time);
        EXPECT_EQ(a[i].mem_time, b[i].mem_time);
        EXPECT_EQ(a[i].exposed_migration, b[i].exposed_migration);
        EXPECT_EQ(a[i].fault_overhead, b[i].fault_overhead);
        EXPECT_EQ(a[i].recompute_time, b[i].recompute_time);
        EXPECT_EQ(a[i].policy_time, b[i].policy_time);
        EXPECT_EQ(a[i].bytes_fast, b[i].bytes_fast);
        EXPECT_EQ(a[i].bytes_slow, b[i].bytes_slow);
        EXPECT_EQ(a[i].slow_bytes_by_kind, b[i].slow_bytes_by_kind);
        EXPECT_EQ(a[i].promoted_bytes, b[i].promoted_bytes);
        EXPECT_EQ(a[i].demoted_bytes, b[i].demoted_bytes);
        EXPECT_EQ(a[i].peak_fast_used, b[i].peak_fast_used);
        EXPECT_EQ(a[i].num_stalls, b[i].num_stalls);
    }
}

/** Run walk vs. one-page reference: stats and attribution agree. */
void
expectSameRun(const Observed &run, const Observed &ref)
{
    expectSameStats(run.stats, ref.stats);
    expectExactAttribution(run);
    expectExactAttribution(ref);
    EXPECT_EQ(run.attr.totals().ticks, ref.attr.totals().ticks);
}

TEST(ExtentEquivalence, MigrationActuallyOverlapsAccesses)
{
    // Guard: the scenario must exercise what it claims to — stalls
    // from in-flight pages and traffic from both tiers.
    auto o = runCase(false, false);
    bool stalled = false, fast = false, slow = false;
    for (const auto &s : o->stats) {
        stalled |= s.num_stalls > 0;
        fast |= s.bytes_fast > 0;
        slow |= s.bytes_slow > 0;
    }
    EXPECT_TRUE(stalled);
    EXPECT_TRUE(fast);
    EXPECT_TRUE(slow);
}

TEST(ExtentEquivalence, RangeWalkMatchesPerPageWalk)
{
    expectSameRun(*runCase(false, false), *runCase(false, true));
}

TEST(ExtentEquivalence, BatchedPolicyHookMatchesPerPageHook)
{
    expectSameRun(*runCase(true, false), *runCase(false, true));
}

TEST(ExtentEquivalence, TrafficBytesAreExact)
{
    // The per-page split of use.traffic_bytes must not lose the
    // division remainder: fast + slow traffic equals the graph's
    // traffic exactly, on the run walk and the one-page reference.
    const std::uint64_t traffic = TestGraph().traffic_per_step;
    for (bool one_page : { false, true }) {
        SCOPED_TRACE(one_page ? "one-page" : "run walk");
        auto o = runCase(false, one_page);
        for (const auto &s : o->stats)
            EXPECT_EQ(s.bytes_fast + s.bytes_slow, traffic);
    }
}

TEST(ExtentEquivalence, ProfilingRunWalkMatchesPerPageWalk)
{
    // Faults charged once per run must leave the clock, and so every
    // later residency check and stall, where one fault per page would:
    // same StepStats, same per-page counts, same fault total.
    auto run = runCase(false, false, true);
    auto ref = runCase(false, true, true);
    expectSameRun(*run, *ref);
    EXPECT_EQ(run->tracker.totalFaults(), ref->tracker.totalFaults());
    EXPECT_GT(run->tracker.totalFaults(), 0u);

    auto a = run->tracker.allCounts();
    auto b = ref->tracker.allCounts();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "page " << a[i].first);
        EXPECT_EQ(a[i].first, b[i].first);
        EXPECT_EQ(a[i].second.counts.reads, b[i].second.counts.reads);
        EXPECT_EQ(a[i].second.counts.writes, b[i].second.counts.writes);
        EXPECT_EQ(a[i].second.tracked, b[i].second.tracked);
    }

    // Non-vacuous: faults were charged and migrations still stalled
    // the profiled step.
    bool stalled = false;
    for (const auto &s : run->stats) {
        EXPECT_GT(s.fault_overhead, 0);
        stalled |= s.num_stalls > 0;
    }
    EXPECT_TRUE(stalled);
}

} // namespace
} // namespace sentinel::df
