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

#include <vector>

#include "support/forwarding_policy.hh"

namespace sentinel::testing {

class OnePagePolicy : public ForwardingPolicy
{
  public:
    using ForwardingPolicy::ForwardingPolicy;

    void
    onRangeAccess(df::Executor &ex, mem::PageRun run, bool is_write,
                  std::vector<df::AccessSegment> &out) override
    {
        inner_.onRangeAccess(ex, mem::PageRun{ run.first, 1 }, is_write,
                             out);
    }
};

} // namespace sentinel::testing

#endif // SENTINEL_TESTS_SUPPORT_ONE_PAGE_POLICY_HH
