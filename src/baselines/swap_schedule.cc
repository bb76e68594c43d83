#include "baselines/swap_schedule.hh"

#include <vector>

#include "common/logging.hh"

namespace sentinel::baselines {

ScheduledSwapPolicy::ScheduledSwapPolicy(std::string name, bool sync_moves)
    : name_(std::move(name)), sync_moves_(sync_moves), arena_(0)
{
}

void
ScheduledSwapPolicy::onTrainingStart(df::Executor &ex)
{
    placement_.assign(ex.graph().numTensors(), Placement::Slow);
    swap_in_at_.assign(static_cast<std::size_t>(ex.graph().numLayers()),
                       {});
    swap_out_at_.assign(static_cast<std::size_t>(ex.graph().numLayers()),
                        {});
    buildSchedule(ex);
    // Pinned preallocated tensors can lose the initial placement race
    // (everything is mapped before training; fast memory may be full).
    // Re-assert their residency at their first use layer — a no-op
    // once they are resident, a one-time promotion otherwise.
    for (df::TensorId id = 0; id < ex.graph().numTensors(); ++id) {
        const df::TensorDesc &t = ex.graph().tensor(id);
        if (placement_[id] == Placement::PinFast && t.preallocated &&
            t.first_layer >= 0) {
            swap_in_at_[static_cast<std::size_t>(t.first_layer)]
                .push_back(id);
        }
    }
    scheduled_ = true;
    Tick overhead = decisionOverhead();
    if (overhead > 0)
        ex.chargePolicy(overhead);
}

Placement
ScheduledSwapPolicy::placementOf(df::TensorId id) const
{
    SENTINEL_ASSERT(id < placement_.size(), "bad tensor id %u", id);
    return placement_[id];
}

df::AllocDecision
ScheduledSwapPolicy::allocate(df::Executor &ex,
                              const df::TensorDesc &tensor)
{
    SENTINEL_ASSERT(scheduled_, "allocate() before buildSchedule()");
    // "Slow" for a swap policy means host memory: the chain's far end.
    mem::Tier tier = ex.hm().slowestTier();
    switch (placement_[tensor.id]) {
      case Placement::Slow:
        break;
      case Placement::PinFast:
        tier = mem::Tier::Fast;
        break;
      case Placement::Swap:
        // Born fast (the producer writes it); the schedule moves it
        // out after its first use episode.
        tier = mem::Tier::Fast;
        break;
    }
    if (tier == mem::Tier::Fast) {
        // GPU allocators block until outstanding evictions free enough
        // device memory; the wait is exposed on the critical path.
        mem::HeterogeneousMemory &hm = ex.hm();
        std::uint64_t need = mem::roundUpToPages(tensor.bytes);
        if (hm.tier(mem::Tier::Fast).free() < need &&
            hm.demoteBusyUntil() > ex.now()) {
            ex.stallUntil(hm.demoteBusyUntil());
        }
    }
    return { arena_.allocate(tensor.bytes, 64), tier };
}

void
ScheduledSwapPolicy::onTensorFreed(df::Executor &, df::TensorId,
                                   const df::TensorPlacement &pl)
{
    arena_.free(pl.addr, pl.bytes);
}

bool
ScheduledSwapPolicy::migrateTensor(df::Executor &ex, df::TensorId id,
                                   mem::Tier dst, bool stall)
{
    if (!ex.isAllocated(id))
        return true;
    mem::HeterogeneousMemory &hm = ex.hm();
    Tick now = ex.now();
    const df::TensorPlacement &pl = ex.placementOf(id);

    std::vector<mem::PageRun> batch;
    std::uint64_t wanted = 0;
    for (mem::PageId p = pl.firstPage(); p < pl.endPage();) {
        mem::PageRunState rs = hm.residentRange(p, pl.endPage() - p, now);
        if (rs.tier != dst && !rs.in_flight) {
            batch.push_back({ p, rs.count });
            wanted += rs.count;
        }
        p += rs.count;
    }
    if (batch.empty())
        return true;
    bool complete = hm.migratePages(batch, dst, now) == wanted;

    if (stall) {
        // Synchronous movement: wait for the whole batch (AutoTM's
        // defining cost — every move sits on the critical path).
        hm.commitUpTo(ex.now());
        Tick last = 0;
        for (const mem::PageRun &r : batch)
            last = std::max(last, hm.arrivalTime(r.first, r.count));
        if (last > 0)
            ex.stallUntil(last);
        if (!complete)
            return migrateTensor(ex, id, dst, /*stall=*/false);
    }
    return complete;
}

void
ScheduledSwapPolicy::onLayerBegin(df::Executor &ex, int layer)
{
    // Retry swap-ins that were blocked on device space; in-flight
    // evictions have been landing in the meantime.
    std::vector<df::TensorId> still_pending;
    for (df::TensorId id : pending_in_)
        if (!migrateTensor(ex, id, mem::Tier::Fast, false))
            still_pending.push_back(id);
    pending_in_ = std::move(still_pending);

    for (df::TensorId id :
         swap_in_at_[static_cast<std::size_t>(layer)]) {
        if (migrateTensor(ex, id, mem::Tier::Fast, sync_moves_))
            continue;
        // Device memory is full.  A required swap-in blocks on the
        // outstanding evictions (swap runtimes synchronize their copy
        // streams exactly here), then retries; only if space is still
        // short does it go to the retry list.
        if (ex.hm().demoteBusyUntil() > ex.now()) {
            ex.stallUntil(ex.hm().demoteBusyUntil());
            if (migrateTensor(ex, id, mem::Tier::Fast, sync_moves_))
                continue;
        }
        pending_in_.push_back(id);
    }
}

void
ScheduledSwapPolicy::onLayerEnd(df::Executor &ex, int layer)
{
    // Swap-outs are asynchronous even for AutoTM (they are not on the
    // use path; only fetches block).
    for (df::TensorId id : swap_out_at_[static_cast<std::size_t>(layer)])
        migrateTensor(ex, id, ex.hm().slowestTier(), false);
}

} // namespace sentinel::baselines
