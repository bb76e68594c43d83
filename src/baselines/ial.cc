#include "baselines/ial.hh"

#include <algorithm>

namespace sentinel::baselines {

df::AllocDecision
IalPolicy::allocate(df::Executor &ex, const df::TensorDesc &tensor)
{
    // First-touch placement prefers fast memory; make room FIFO-style
    // if it is full (the kernel reclaims from the active list's tail).
    std::uint64_t need = mem::roundUpToPages(tensor.bytes);
    if (ex.hm().tier(mem::Tier::Fast).free() < need)
        evictForSpace(ex, need);
    return { arena_.allocate(tensor.bytes, 64), mem::Tier::Fast };
}

void
IalPolicy::noteFastRun(mem::PageId first, std::uint64_t count)
{
    pages_.forRange(
        first, count,
        [&](PageState *slots, std::uint64_t n) {
            for (std::uint64_t i = 0; i < n; ++i) {
                if (!slots[i].in_fifo) {
                    slots[i].in_fifo = true;
                    fifo_.push_back(first + i);
                }
            }
            first += n;
        },
        /*create=*/true);
}

void
IalPolicy::onTensorAllocated(df::Executor &ex, df::TensorId,
                             const df::TensorPlacement &pl)
{
    // A page in flight is read from its source tier, so every page of
    // a run whose (source) tier is fast joins the active list.
    mem::HeterogeneousMemory &hm = ex.hm();
    Tick now = ex.now();
    const mem::PageId end = pl.endPage();
    for (mem::PageId p = pl.firstPage(); p < end;) {
        mem::PageRunState rs = hm.residentRange(p, end - p, now);
        if (rs.tier == mem::Tier::Fast)
            noteFastRun(p, rs.count);
        p += rs.count;
    }
}

void
IalPolicy::onTensorFreed(df::Executor &, df::TensorId,
                         const df::TensorPlacement &pl)
{
    arena_.free(pl.addr, pl.bytes);
}

void
IalPolicy::onRangeUnmapped(df::Executor &, mem::PageRun run)
{
    // Lazy removal: dead pages are skipped when popped.
    pages_.forRange(run.first, run.count,
                    [](PageState *slots, std::uint64_t n) {
                        std::fill_n(slots, n, PageState{});
                    });
}

void
IalPolicy::evictForSpace(df::Executor &ex, std::uint64_t bytes_needed)
{
    mem::HeterogeneousMemory &hm = ex.hm();
    Tick now = ex.now();

    victims_.clear();
    std::uint64_t reclaimed = 0;
    while (reclaimed < bytes_needed && fifo_head_ < fifo_.size()) {
        mem::PageId head = fifo_[fifo_head_++];
        PageState &st = pages_.ref(head);
        if (!st.in_fifo)
            continue; // page died earlier
        st.in_fifo = false;
        if (!hm.isMapped(head))
            continue;
        mem::PageRunState rs = hm.residentRange(head, 1, now);
        if (rs.tier != mem::Tier::Fast || rs.in_flight)
            continue;
        mem::appendPage(victims_, head);
        reclaimed += mem::kPageSize;
    }
    // Compact once the popped prefix outgrows the queue (amortized
    // O(1), and the vector keeps its capacity).
    if (fifo_head_ > fifo_.size() / 2) {
        fifo_.erase(fifo_.begin(),
                    fifo_.begin() + static_cast<std::ptrdiff_t>(fifo_head_));
        fifo_head_ = 0;
    }
    // Background demotion: space becomes free when transfers land.
    hm.migratePages(victims_, mem::Tier::Slow, now);
}

std::uint64_t
IalPolicy::countBelowThreshold(mem::PageId first, std::uint64_t count)
{
    for (std::uint64_t i = 0; i < count; ++i) {
        PageState &st = pages_.ref(first + i);
        if (st.touches + 1 >= threshold_)
            return i;
        ++st.touches;
    }
    return count;
}

void
IalPolicy::onRangeAccess(df::Executor &ex, mem::PageRun run, bool,
                         std::vector<df::AccessSegment> &out)
{
    // IAL only acts on pages sitting idle in slow memory.  Pages that
    // are fast-resident or already migrating take no action (and no
    // hint-fault cost), so a leading run of them is one free segment.
    //
    // The slow idle pages after it keep their state while the clock
    // advances, and a hint fault below the threshold only bumps the
    // page's count and costs a fixed time, so a run of them is one
    // more segment.  That batch stops before the first page that would
    // reach the threshold: its fault may promote (and evict), so it is
    // resolved alone at the head of a later call, at its own clock.
    // Under a trace recorder every hint fault resolves alone, so each
    // page's traffic is recorded at its own time (Fig. 9).
    const bool batch = !ex.tracing();
    mem::HeterogeneousMemory &hm = ex.hm();
    Tick now = ex.now();
    std::uint64_t covered = 0;
    std::uint64_t faults = 0;
    while (covered < run.count) {
        mem::PageRunState rs = hm.residentRange(
            run.first + covered, run.count - covered, now);
        if (rs.tier == mem::Tier::Fast || rs.in_flight) {
            if (faults > 0)
                break;
            covered += rs.count;
            continue;
        }
        std::uint64_t n =
            batch ? countBelowThreshold(run.first + covered, rs.count)
                  : 0;
        covered += n;
        faults += n;
        if (n < rs.count)
            break;
    }
    if (covered == 0) {
        out.push_back(hintFault(ex, run.first));
        return;
    }
    if (covered > faults) {
        df::AccessSegment seg;
        seg.pages = covered - faults;
        out.push_back(seg);
    }
    if (faults > 0) {
        df::AccessSegment seg;
        seg.pages = faults;
        seg.extra = static_cast<Tick>(faults) * hint_fault_cost_;
        seg.stall_events = seg.extra > 0 ? faults : 0;
        out.push_back(seg);
    }
}

df::AccessSegment
IalPolicy::hintFault(df::Executor &ex, mem::PageId page)
{
    // Count page heat through NUMA-style hint faults (each sampled
    // access pays the fault).  Every tensor sharing this page heats
    // it — page-level false sharing at work.
    mem::HeterogeneousMemory &hm = ex.hm();
    Tick now = ex.now();
    df::AccessSegment out;
    out.pages = 1;
    out.extra = hint_fault_cost_;
    if (++pages_.ref(page).touches >= threshold_) {
        if (hm.tier(mem::Tier::Fast).free() < mem::kPageSize)
            evictForSpace(ex, 16 * mem::kPageSize);

        if (hm.migratePage(page, mem::Tier::Fast, now) >= 0) {
            ++promotions_;
            pages_.ref(page).touches = 0;
            noteFastRun(page, 1);
            // Fault-driven promotion: the faulting access pays the
            // in-kernel page copy + remap, then proceeds on the fast
            // copy.
            out.extra += promote_service_;
            out.effective = mem::Tier::Fast;
        }
    }
    out.stall_events = out.extra > 0 ? 1 : 0;
    return out;
}

} // namespace sentinel::baselines
