#include "mem/access_tracker.hh"

namespace sentinel::mem {

void
AccessTracker::trackRange(PageId first, std::uint64_t count)
{
    pages_.forRange(first, count, [](PageTrackState *s, std::uint64_t n) {
        for (std::uint64_t i = 0; i < n; ++i)
            s[i].tracked = true;
    }, /*create=*/true);
}

void
AccessTracker::untrackRange(PageId first, std::uint64_t count)
{
    pages_.forRange(first, count, [](PageTrackState *s, std::uint64_t n) {
        for (std::uint64_t i = 0; i < n; ++i)
            s[i].tracked = false;
    });
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
    pages_.forRange(first, n, [&](PageTrackState *s, std::uint64_t k) {
        for (std::uint64_t i = 0; i < k; ++i) {
            if (!s[i].tracked)
                continue;
            PageAccessCounts &c = s[i].counts;
            (is_write ? c.writes : c.reads) += count;
            faults += count;
        }
    });
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
