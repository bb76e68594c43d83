#include "baselines/memory_mode.hh"

namespace sentinel::baselines {

void
MemoryModePolicy::onRangeAccess(df::Executor &ex, mem::PageRun run,
                                bool is_write,
                                std::vector<df::AccessSegment> &out)
{
    // The cache result never depends on the simulated clock (pure LRU
    // state), so a whole run batches into one segment, served at DRAM
    // speed after any fills.  Every miss fills exactly one page from
    // PMM (plus a dirty victim's writeback), all on the critical path.
    const mem::TierParams &slow =
        ex.hm().tierParams(ex.hm().slowestTier());
    mem::DramCacheRangeResult r =
        cache_.accessRange(run.first, run.count, is_write);

    df::AccessSegment seg;
    seg.pages = run.count;
    seg.effective = mem::Tier::Fast;
    if (r.misses > 0) {
        Tick per_miss = transferTime(mem::kPageSize, slow.read_bw) +
                        slow.read_latency;
        seg.extra = static_cast<Tick>(r.misses) * per_miss +
                    static_cast<Tick>(r.writebacks) *
                        transferTime(mem::kPageSize, slow.write_bw);
        seg.stall_events = r.misses;
    }
    out.push_back(seg);
}

} // namespace sentinel::baselines
