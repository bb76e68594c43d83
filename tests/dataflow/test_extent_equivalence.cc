/**
 * @file
 * Differential tests for the extent-granular hot path.
 *
 * The range walk (Executor::AccessMode::Range) is a performance
 * feature; semantically it must be invisible.  Every combination of
 * {Range, PerPage} access mode x {batched, per-page} policy hook must
 * produce StepStats that are equal field-for-field, on a graph
 * engineered to hit the awkward cases: multi-page tensors, odd
 * (non-page-multiple) traffic, and migrations still in flight in the
 * middle of an accessed extent.
 */

#include <cstdint>
#include <initializer_list>
#include <vector>

#include <gtest/gtest.h>

#include "alloc/arena.hh"
#include "dataflow/executor.hh"
#include "mem/hm.hh"

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
    MigratingTestPolicy(TensorId weight, bool batched_ranges)
        : weight_(weight), batched_(batched_ranges), arena_(0)
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
        if (!batched_) {
            // Exercise the default one-page adapter.
            MemoryPolicy::onRangeAccess(ex, run, is_write, out);
            return;
        }
        AccessSegment seg;
        seg.pages = run.count;
        out.push_back(seg);
    }

  private:
    TensorId weight_;
    bool batched_;
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

std::vector<StepStats>
runCombo(Executor::AccessMode mode, bool batched_policy, int steps = 3)
{
    TestGraph tg;
    auto hm = makeHm();
    MigratingTestPolicy policy(tg.weight, batched_policy);
    Executor ex(tg.graph, hm, ExecParams{}, policy);
    ex.setAccessMode(mode);
    return ex.run(steps);
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

TEST(ExtentEquivalence, MigrationActuallyOverlapsAccesses)
{
    // Guard: the scenario must exercise what it claims to — stalls
    // from in-flight pages and traffic from both tiers.
    auto stats = runCombo(Executor::AccessMode::Range, false);
    bool stalled = false, fast = false, slow = false;
    for (const auto &s : stats) {
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
    expectSameStats(runCombo(Executor::AccessMode::Range, false),
                    runCombo(Executor::AccessMode::PerPage, false));
}

TEST(ExtentEquivalence, BatchedPolicyHookMatchesPerPageHook)
{
    expectSameStats(runCombo(Executor::AccessMode::Range, true),
                    runCombo(Executor::AccessMode::PerPage, false));
}

TEST(ExtentEquivalence, TrafficBytesAreExact)
{
    // The per-page split of use.traffic_bytes must not lose the
    // division remainder: fast + slow traffic equals the graph's
    // traffic exactly, in both walk modes.
    TestGraph tg;
    for (auto mode : { Executor::AccessMode::Range,
                       Executor::AccessMode::PerPage }) {
        auto hm = makeHm();
        MigratingTestPolicy policy(tg.weight, false);
        Executor ex(tg.graph, hm, ExecParams{}, policy);
        ex.setAccessMode(mode);
        for (const auto &s : ex.run(3))
            EXPECT_EQ(s.bytes_fast + s.bytes_slow,
                      tg.traffic_per_step);
    }
}

} // namespace
} // namespace sentinel::df
