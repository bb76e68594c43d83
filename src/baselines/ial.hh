/**
 * @file
 * IAL — the "improved active list" page-migration baseline.
 *
 * The paper's main CPU-side competitor [19]: an OS-level, DNN-agnostic
 * mechanism keeping a FIFO active list of fast-memory pages.  Pages
 * that get accessed repeatedly in slow memory are promoted
 * (asynchronously, in the background, like the kernel's migration
 * threads); when fast memory fills, the *oldest* page is evicted
 * regardless of its heat.
 *
 * Its weaknesses are exactly the ones Sentinel attacks:
 *  - page-level view: false sharing makes cold tensors look hot (the
 *    packed layout guarantees sharing);
 *  - no lifetime knowledge: short-lived tensors' pages get promoted
 *    and then evicted pointlessly, wasting migration bandwidth;
 *  - FIFO eviction throws out hot pages, which must be re-promoted.
 */

#ifndef SENTINEL_BASELINES_IAL_HH
#define SENTINEL_BASELINES_IAL_HH

#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "alloc/arena.hh"
#include "dataflow/executor.hh"
#include "dataflow/policy.hh"

namespace sentinel::baselines {

class IalPolicy : public df::MemoryPolicy
{
  public:
    /**
     * @param promote_threshold slow-memory accesses before a page is
     *        considered active and queued for promotion.
     */
    explicit IalPolicy(int promote_threshold = 4,
                       Tick hint_fault_cost = 250,
                       Tick promote_service_cost = kUsec)
        : threshold_(promote_threshold),
          hint_fault_cost_(hint_fault_cost),
          promote_service_(promote_service_cost), arena_(0)
    {
    }

    std::string name() const override { return "ial"; }

    df::AllocDecision allocate(df::Executor &ex,
                               const df::TensorDesc &tensor) override;
    void onTensorAllocated(df::Executor &ex, df::TensorId id,
                           const df::TensorPlacement &pl) override;
    void onTensorFreed(df::Executor &ex, df::TensorId id,
                       const df::TensorPlacement &pl) override;
    void onRangeUnmapped(df::Executor &ex, mem::PageRun run) override;
    void onRangeAccess(df::Executor &ex, mem::PageRun run, bool is_write,
                       std::vector<df::AccessSegment> &out) override;

    bool
    stallForInflight(df::Executor &, mem::PageId) override
    {
        // The kernel never blocks the application for its own
        // migrations: accesses read the source copy until remap.
        return false;
    }

    std::uint64_t promotionsRequested() const { return promotions_; }

  private:
    /** Hint fault on a slow-resident, idle @p page (may promote it). */
    df::AccessSegment hintFault(df::Executor &ex, mem::PageId page);
    void evictForSpace(df::Executor &ex, std::uint64_t bytes_needed);
    void noteFastPage(mem::PageId page);

    int threshold_;
    Tick hint_fault_cost_;
    Tick promote_service_;
    alloc::VirtualArena arena_;

    /** FIFO active list of fast pages (front = oldest). */
    std::deque<mem::PageId> fifo_;
    std::unordered_set<mem::PageId> in_fifo_;

    /** Slow-memory access counts (page heat, false sharing included). */
    std::unordered_map<mem::PageId, int> slow_touches_;

    std::uint64_t promotions_ = 0;
};

} // namespace sentinel::baselines

#endif // SENTINEL_BASELINES_IAL_HH
