/**
 * @file
 * Test-only check of the executor's exclusive-interior rule.
 *
 * The executor refcounts only a placement's first and last page: that
 * is exact only while the byte ranges of live placements are disjoint,
 * so that no other live tensor can touch a placement's interior pages.
 * DisjointCheckPolicy wraps a policy, forwards every hook to it, keeps
 * the live byte intervals from onTensorAllocated()/onTensorFreed(), and
 * panics (std::logic_error) the moment a new placement overlaps one.
 */

#ifndef SENTINEL_TESTS_SUPPORT_DISJOINT_CHECK_POLICY_HH
#define SENTINEL_TESTS_SUPPORT_DISJOINT_CHECK_POLICY_HH

#include <cstdint>
#include <iterator>
#include <map>

#include "common/logging.hh"
#include "support/forwarding_policy.hh"

namespace sentinel::testing {

class DisjointCheckPolicy : public ForwardingPolicy
{
  public:
    using ForwardingPolicy::ForwardingPolicy;

    void
    onTensorAllocated(df::Executor &ex, df::TensorId id,
                      const df::TensorPlacement &pl) override
    {
        const mem::VirtAddr lo = pl.addr;
        const mem::VirtAddr hi = pl.addr + pl.bytes;
        // The first interval starting at or after lo, and the one
        // before it, are the only candidates for an overlap.
        auto next = live_.lower_bound(lo);
        if (next != live_.end())
            SENTINEL_ASSERT(next->first >= hi,
                            "tensor %u [%llu, %llu) overlaps live tensor "
                            "%u at %llu",
                            id, static_cast<unsigned long long>(lo),
                            static_cast<unsigned long long>(hi),
                            next->second.id,
                            static_cast<unsigned long long>(next->first));
        if (next != live_.begin()) {
            auto prev = std::prev(next);
            SENTINEL_ASSERT(prev->second.end <= lo,
                            "tensor %u [%llu, %llu) overlaps live tensor "
                            "%u ending at %llu",
                            id, static_cast<unsigned long long>(lo),
                            static_cast<unsigned long long>(hi),
                            prev->second.id,
                            static_cast<unsigned long long>(
                                prev->second.end));
        }
        live_.emplace(lo, Interval{ hi, id });
        ++checked_;
        ForwardingPolicy::onTensorAllocated(ex, id, pl);
    }

    void
    onTensorFreed(df::Executor &ex, df::TensorId id,
                  const df::TensorPlacement &pl) override
    {
        auto it = live_.find(pl.addr);
        SENTINEL_ASSERT(it != live_.end() && it->second.id == id,
                        "tensor %u freed at %llu, where it is not live", id,
                        static_cast<unsigned long long>(pl.addr));
        live_.erase(it);
        ForwardingPolicy::onTensorFreed(ex, id, pl);
    }

    /** Placements checked so far (one per allocation). */
    std::uint64_t checked() const { return checked_; }

  private:
    struct Interval {
        mem::VirtAddr end;
        df::TensorId id;
    };
    std::map<mem::VirtAddr, Interval> live_; ///< start -> interval
    std::uint64_t checked_ = 0;
};

} // namespace sentinel::testing

#endif // SENTINEL_TESTS_SUPPORT_DISJOINT_CHECK_POLICY_HH
