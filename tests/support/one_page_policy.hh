/**
 * @file
 * Test-only one-page reference for the executor's run walk.
 *
 * OnePagePolicy wraps a MemoryPolicy, forwards every hook to it, and
 * narrows each onRangeAccess() call to the run's first page.  The
 * executor then resolves, charges, and (when profiling) faults one
 * page at a time, with the policy consulted again before every page:
 * the page-by-page interleaving the production walk batches away.
 * Differential tests run a policy bare and wrapped and require
 * identical StepStats, attribution, and tracker counts.
 */

#ifndef SENTINEL_TESTS_SUPPORT_ONE_PAGE_POLICY_HH
#define SENTINEL_TESTS_SUPPORT_ONE_PAGE_POLICY_HH

#include <string>
#include <vector>

#include "dataflow/policy.hh"

namespace sentinel::testing {

class OnePagePolicy : public df::MemoryPolicy
{
  public:
    explicit OnePagePolicy(df::MemoryPolicy &inner) : inner_(inner) {}

    std::string name() const override { return inner_.name(); }

    void
    onTrainingStart(df::Executor &ex) override
    {
        inner_.onTrainingStart(ex);
    }

    void
    onStepBegin(df::Executor &ex, int step) override
    {
        inner_.onStepBegin(ex, step);
    }

    void
    onStepEnd(df::Executor &ex, int step) override
    {
        inner_.onStepEnd(ex, step);
    }

    void
    onLayerBegin(df::Executor &ex, int layer) override
    {
        inner_.onLayerBegin(ex, layer);
    }

    void
    onLayerEnd(df::Executor &ex, int layer) override
    {
        inner_.onLayerEnd(ex, layer);
    }

    df::AllocDecision
    allocate(df::Executor &ex, const df::TensorDesc &tensor) override
    {
        return inner_.allocate(ex, tensor);
    }

    void
    onTensorAllocated(df::Executor &ex, df::TensorId id,
                      const df::TensorPlacement &pl) override
    {
        inner_.onTensorAllocated(ex, id, pl);
    }

    void
    onTensorFreed(df::Executor &ex, df::TensorId id,
                  const df::TensorPlacement &pl) override
    {
        inner_.onTensorFreed(ex, id, pl);
    }

    void
    onPageUnmapped(df::Executor &ex, mem::PageId page) override
    {
        inner_.onPageUnmapped(ex, page);
    }

    void
    onRangeAccess(df::Executor &ex, mem::PageRun run, bool is_write,
                  std::vector<df::AccessSegment> &out) override
    {
        inner_.onRangeAccess(ex, mem::PageRun{ run.first, 1 }, is_write,
                             out);
    }

    bool
    stallForInflight(df::Executor &ex, mem::PageId page) override
    {
        return inner_.stallForInflight(ex, page);
    }

  private:
    df::MemoryPolicy &inner_;
};

} // namespace sentinel::testing

#endif // SENTINEL_TESTS_SUPPORT_ONE_PAGE_POLICY_HH
