/**
 * @file
 * Optane Memory Mode: DRAM as a hardware-managed cache (Sec. VII-B).
 *
 * Software sees one big (slow) memory; the memory controller manages
 * the DRAM tier as a set-associative page cache.  No placement policy
 * is possible — the baseline the paper beats by 1.2x on large-batch
 * training (Fig. 8) because the cache has neither tensor lifetimes nor
 * false-sharing avoidance.
 */

#ifndef SENTINEL_BASELINES_MEMORY_MODE_HH
#define SENTINEL_BASELINES_MEMORY_MODE_HH

#include "alloc/arena.hh"
#include "dataflow/executor.hh"
#include "dataflow/policy.hh"
#include "mem/dram_cache.hh"

namespace sentinel::baselines {

class MemoryModePolicy : public df::MemoryPolicy
{
  public:
    /** @param dram_bytes capacity of the hardware cache (= fast tier). */
    explicit MemoryModePolicy(std::uint64_t dram_bytes,
                              unsigned associativity = 4)
        : arena_(0), cache_(dram_bytes, associativity)
    {
    }

    std::string name() const override { return "memory-mode"; }

    df::AllocDecision
    allocate(df::Executor &ex, const df::TensorDesc &tensor) override
    {
        // Software only ever sees the backing store (the chain's far
        // end); the DRAM cache is invisible.
        return { arena_.allocate(tensor.bytes, 64),
                 ex.hm().slowestTier() };
    }

    void
    onTensorFreed(df::Executor &, df::TensorId,
                  const df::TensorPlacement &pl) override
    {
        arena_.free(pl.addr, pl.bytes);
    }

    void onRangeAccess(df::Executor &ex, mem::PageRun run, bool is_write,
                       std::vector<df::AccessSegment> &out) override;

    const mem::DramCache &cache() const { return cache_; }

  private:
    alloc::VirtualArena arena_;
    mem::DramCache cache_;
};

} // namespace sentinel::baselines

#endif // SENTINEL_BASELINES_MEMORY_MODE_HH
