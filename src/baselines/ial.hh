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
 *
 * The bookkeeping is dense and allocation-free once warm: per-page
 * heat and active-list membership live in one PageDirectory, the
 * active list is a reused vector with a head index, and the access
 * hook resolves a run of below-threshold hint faults as one segment.
 */

#ifndef SENTINEL_BASELINES_IAL_HH
#define SENTINEL_BASELINES_IAL_HH

#include <cstddef>
#include <vector>

#include "alloc/arena.hh"
#include "dataflow/executor.hh"
#include "dataflow/policy.hh"
#include "mem/page_directory.hh"

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

    /** Slow-memory hint faults @p page has taken since it was last
     *  promoted or unmapped. */
    int
    slowTouches(mem::PageId page) const
    {
        return pages_.get(page).touches;
    }

  private:
    /** Per-page state; value-initialized = not tracked. */
    struct PageState {
        int touches = 0;      ///< slow-memory hint faults (page heat)
        bool in_fifo = false; ///< on the active list
    };

    /** Hint fault on a slow-resident, idle @p page (may promote it). */
    df::AccessSegment hintFault(df::Executor &ex, mem::PageId page);
    /**
     * Count one hint fault on each leading page of [first, first+count)
     * whose count stays below the threshold; returns how many pages
     * that covered (it stops at the first page that would reach it).
     */
    std::uint64_t countBelowThreshold(mem::PageId first,
                                      std::uint64_t count);
    void evictForSpace(df::Executor &ex, std::uint64_t bytes_needed);
    void noteFastRun(mem::PageId first, std::uint64_t count);

    int threshold_;
    Tick hint_fault_cost_;
    Tick promote_service_;
    alloc::VirtualArena arena_;

    mem::PageDirectory<PageState> pages_;

    /**
     * FIFO active list of fast pages: fifo_[fifo_head_] is the oldest.
     * Unmapping a page only clears its in_fifo flag, so an entry whose
     * page is no longer flagged is skipped when popped; a page freed
     * and noted again before its old entry is popped is flagged once
     * more, and that old entry is the one popped and evicted.
     */
    std::vector<mem::PageId> fifo_;
    std::size_t fifo_head_ = 0;

    std::vector<mem::PageRun> victims_; ///< evictForSpace scratch

    std::uint64_t promotions_ = 0;
};

} // namespace sentinel::baselines

#endif // SENTINEL_BASELINES_IAL_HH
