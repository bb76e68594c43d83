/**
 * @file
 * CUDA Unified Memory (UM) — the GPU demand-paging baseline.
 *
 * No profiling, no prefetching: a GPU access to a host-resident page
 * raises a page fault; the driver migrates the page on demand (fault
 * service + transfer fully exposed) and evicts least-recently-used
 * pages when device memory fills.  The paper's Fig. 12 normalizes all
 * GPU results to UM; Sentinel-GPU beats it by 1.1x-7.8x.
 */

#ifndef SENTINEL_BASELINES_UNIFIED_MEMORY_HH
#define SENTINEL_BASELINES_UNIFIED_MEMORY_HH

#include <list>
#include <unordered_map>

#include "alloc/arena.hh"
#include "dataflow/executor.hh"
#include "dataflow/policy.hh"

namespace sentinel::baselines {

class UnifiedMemoryPolicy : public df::MemoryPolicy
{
  public:
    /** @param fault_cost driver fault-service overhead per demand miss. */
    explicit UnifiedMemoryPolicy(Tick fault_cost = 8 * kUsec)
        : fault_cost_(fault_cost), arena_(0)
    {
    }

    std::string name() const override { return "um"; }

    df::AllocDecision allocate(df::Executor &ex,
                               const df::TensorDesc &tensor) override;
    void onTensorAllocated(df::Executor &ex, df::TensorId id,
                           const df::TensorPlacement &pl) override;
    void onTensorFreed(df::Executor &ex, df::TensorId id,
                       const df::TensorPlacement &pl) override;
    void onRangeUnmapped(df::Executor &ex, mem::PageRun run) override;
    void onRangeAccess(df::Executor &ex, mem::PageRun run, bool is_write,
                       std::vector<df::AccessSegment> &out) override;

    std::uint64_t demandFaults() const { return faults_; }

  private:
    /** Demand fault on a host-resident @p page (migrates it back). */
    df::AccessSegment demandFault(df::Executor &ex, mem::PageId page);
    void touchLru(mem::PageId page);
    void evictLru(df::Executor &ex, std::uint64_t bytes_needed);

    Tick fault_cost_;
    alloc::VirtualArena arena_;

    /** LRU order of device-resident pages (front = least recent). */
    std::list<mem::PageId> lru_;
    std::unordered_map<mem::PageId, std::list<mem::PageId>::iterator>
        lru_pos_;

    std::uint64_t faults_ = 0;
};

} // namespace sentinel::baselines

#endif // SENTINEL_BASELINES_UNIFIED_MEMORY_HH
