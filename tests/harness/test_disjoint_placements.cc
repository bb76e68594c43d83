/**
 * @file
 * The executor's exclusive-interior rule, checked on every production
 * policy.
 *
 * The executor refcounts only a placement's first and last page, which
 * is exact only while live placements' byte ranges are disjoint.  Each
 * cell assembles a policy exactly as harness::Run does, wraps it in
 * the test-only DisjointCheckPolicy (which panics on the first
 * overlapping placement), and trains a few steps: resnet32 on two
 * tiers and llm:tiny on three, on both platforms.
 */

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dataflow/executor.hh"
#include "harness/experiment.hh"
#include "mem/hm.hh"
#include "support/disjoint_check_policy.hh"

namespace sentinel::harness {
namespace {

/** One (platform, policy, Sentinel layout) cell. */
struct Cell {
    const char *label;
    Platform platform;
    std::string policy;
    bool coalloc = true;
    bool pool = true;
    std::string planner = "greedy";
};

std::vector<Cell>
allCells()
{
    std::vector<Cell> cells;
    for (const std::string &p : cpuPolicies())
        cells.push_back({ "cpu", Platform::Optane, p });
    for (const std::string &p : gpuPolicies())
        cells.push_back({ "gpu", Platform::Gpu, p });
    // Sentinel's other layouts: packed (no co-allocation), no reserved
    // short-lived pool, and the interval layout planner.
    cells.push_back({ "cpu packed", Platform::Optane, "sentinel", false });
    cells.push_back(
        { "cpu no-pool", Platform::Optane, "sentinel", true, false });
    cells.push_back({ "cpu interval", Platform::Optane, "sentinel", true,
                      true, "interval" });
    return cells;
}

/**
 * Train @p cell on @p model over @p tiers tiers with every placement
 * checked.  @return placements checked (0: the policy cannot run the
 * graph).
 */
std::uint64_t
runChecked(const std::string &model, int tiers, const Cell &cell)
{
    ExperimentConfig cfg;
    cfg.model = model;
    cfg.batch = 8;
    cfg.tiers = tiers;
    cfg.platform = cell.platform;
    cfg.steps = 3;
    cfg.warmup = 1;
    cfg.sentinel.use_coalloc = cell.coalloc;
    cfg.sentinel.use_reserved_pool = cell.pool;
    cfg.planner = cell.planner;
    // Run sizes the platform and profiles; the checked executor below
    // is assembled from the same pieces.
    Run run(cfg, cell.policy);
    if (!run.supported())
        return 0;
    const prof::ProfileDatabase *db =
        run.profile() ? &run.profile()->db : nullptr;
    auto inner =
        makePolicy(cell.policy, cfg, run.platform().fast.capacity, db);
    testing::DisjointCheckPolicy check(*inner);
    mem::HeterogeneousMemory hm(run.platform().tierChain(),
                                run.platform().linkChain());
    df::Executor ex(run.graph(), hm, run.platform().exec, check);
    try {
        ex.run(cfg.steps);
    } catch (const std::runtime_error &) {
        // Out of memory: infeasible, but every placement made so far
        // was checked.
    }
    return check.checked();
}

/** @p may_skip: cells allowed to refuse the graph (vDNN runs CNNs
 *  only). */
void
checkAll(const std::string &model, int tiers, int may_skip)
{
    int ran = 0;
    for (const Cell &cell : allCells()) {
        SCOPED_TRACE(::testing::Message() << model << " " << cell.label
                                          << " " << cell.policy);
        std::uint64_t n = 0;
        EXPECT_NO_THROW(n = runChecked(model, tiers, cell));
        ran += n > 0 ? 1 : 0;
    }
    EXPECT_EQ(ran, static_cast<int>(allCells().size()) - may_skip);
}

TEST(DisjointPlacements, Resnet32TwoTiers) { checkAll("resnet32", 2, 0); }

TEST(DisjointPlacements, LlmTinyThreeTiers) { checkAll("llm:tiny", 3, 1); }

/** Places every tensor at address 0. */
class EverythingAtZero : public df::MemoryPolicy
{
  public:
    std::string name() const override { return "at-zero"; }

    df::AllocDecision
    allocate(df::Executor &, const df::TensorDesc &) override
    {
        return { 0, mem::Tier::Fast };
    }
};

TEST(DisjointPlacements, CheckCatchesOverlapInsideOnePage)
{
    // Two live sub-page tensors on the same bytes of page 0: its
    // boundary count reads 2 and the page table sees nothing wrong, so
    // the check itself must refuse the second placement.
    df::Graph g("overlap", 1);
    df::TensorId a = g.addTensor("a", 1000, df::TensorKind::Activation);
    df::TensorId b = g.addTensor("b", 1000, df::TensorKind::Activation);
    g.addOp("op", df::OpType::Other, 0, 1e6,
            { df::TensorUse{ a, true, 1000, 1.0 },
              df::TensorUse{ b, true, 1000, 1.0 } });
    g.finalize();
    mem::TierParams fast{ "dram", 64ull << 20, 50e9, 40e9, 80, 80 };
    mem::TierParams slow{ "pmm", 1ull << 30, 6e9, 2e9, 300, 100 };
    mem::HeterogeneousMemory hm({ fast, slow }, { { 4e9, 2e9, 2000 } });
    EverythingAtZero rigged;
    testing::DisjointCheckPolicy check(rigged);
    df::Executor ex(g, hm, df::ExecParams{}, check);
    try {
        ex.runStep();
        FAIL() << "overlapping placements went unnoticed";
    } catch (const std::logic_error &e) {
        EXPECT_NE(std::string(e.what()).find("overlaps live tensor 0"),
                  std::string::npos)
            << e.what();
    }
}

} // namespace
} // namespace sentinel::harness
