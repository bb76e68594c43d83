/**
 * @file
 * Test-only base for policy wrappers.
 *
 * ForwardingPolicy forwards every MemoryPolicy hook to the wrapped
 * policy unchanged; a wrapper overrides only the hooks it observes or
 * reshapes, and calls the base to keep forwarding.
 */

#ifndef SENTINEL_TESTS_SUPPORT_FORWARDING_POLICY_HH
#define SENTINEL_TESTS_SUPPORT_FORWARDING_POLICY_HH

#include <string>
#include <vector>

#include "dataflow/policy.hh"

namespace sentinel::testing {

class ForwardingPolicy : public df::MemoryPolicy
{
  public:
    explicit ForwardingPolicy(df::MemoryPolicy &inner) : inner_(inner) {}

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
    onRangeUnmapped(df::Executor &ex, mem::PageRun run) override
    {
        inner_.onRangeUnmapped(ex, run);
    }

    void
    onRangeAccess(df::Executor &ex, mem::PageRun run, bool is_write,
                  std::vector<df::AccessSegment> &out) override
    {
        inner_.onRangeAccess(ex, run, is_write, out);
    }

    bool
    stallForInflight(df::Executor &ex, mem::PageId page) override
    {
        return inner_.stallForInflight(ex, page);
    }

  protected:
    df::MemoryPolicy &inner_;
};

} // namespace sentinel::testing

#endif // SENTINEL_TESTS_SUPPORT_FORWARDING_POLICY_HH
