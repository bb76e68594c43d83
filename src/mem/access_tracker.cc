#include "mem/access_tracker.hh"

namespace sentinel::mem {

void
AccessTracker::track(PageId page)
{
    pages_.ref(page).tracked = true;
}

void
AccessTracker::trackRange(PageId first, std::uint64_t count)
{
    for (std::uint64_t i = 0; i < count; ++i)
        pages_.ref(first + i).tracked = true;
}

void
AccessTracker::untrack(PageId page)
{
    if (pages_.find(page))
        pages_.ref(page).tracked = false;
}

void
AccessTracker::untrackRange(PageId first, std::uint64_t count)
{
    for (std::uint64_t i = 0; i < count; ++i)
        untrack(first + i);
}

bool
AccessTracker::isTracked(PageId page) const
{
    const PageTrackState *s = pages_.find(page);
    return s && s->tracked;
}

Tick
AccessTracker::onAccess(PageId first, std::uint64_t n, bool is_write,
                        std::uint64_t count)
{
    if (count == 0)
        return 0;
    std::uint64_t faults = 0;
    for (PageId page = first; page < first + n; ++page) {
        const PageTrackState *s = pages_.find(page);
        if (!s || !s->tracked)
            continue;
        PageAccessCounts &c = pages_.ref(page).counts;
        (is_write ? c.writes : c.reads) += count;
        faults += count;
    }
    total_faults_ += faults;
    return fault_cost_ * static_cast<Tick>(faults);
}

std::vector<std::pair<PageId, PageTrackState>>
AccessTracker::allCounts() const
{
    std::vector<std::pair<PageId, PageTrackState>> out;
    pages_.forEach([&](PageId page, const PageTrackState &s) {
        if (s.tracked || s.counts.total() > 0)
            out.emplace_back(page, s);
    });
    return out;
}

PageAccessCounts
AccessTracker::counts(PageId page) const
{
    const PageTrackState *s = pages_.find(page);
    return s ? s->counts : PageAccessCounts{};
}

void
AccessTracker::reset()
{
    pages_.clear();
    total_faults_ = 0;
}

} // namespace sentinel::mem
