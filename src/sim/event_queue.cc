#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/logging.hh"

namespace sentinel::sim {

namespace {

constexpr std::size_t kMinBuckets = 16;

/** Bucket-heap comparator: the earliest (when, seq) entry surfaces
 *  first. */
struct HeapLater {
    bool
    operator()(const auto &a, const auto &b) const
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.seq > b.seq;
    }
};

} // namespace

EventQueue::EventQueue() : buckets_(kMinBuckets) {}

void
EventQueue::schedule(Tick when, Callback cb)
{
    SENTINEL_ASSERT(when >= 0, "event scheduled at negative tick %lld",
                    static_cast<long long>(when));
    calPush(Entry{ when, next_seq_++, std::move(cb) });
    ++count_;
    if (when < search_from_)
        search_from_ = when;
}

Tick
EventQueue::nextEventTick() const
{
    if (count_ == 0)
        return -1;
    std::size_t b, i;
    calFind(&b, &i);
    return buckets_[b][i].when;
}

std::size_t
EventQueue::runUntil(Tick until)
{
    std::size_t n = 0;
    while (count_ > 0 && nextEventTick() <= until) {
        // Move out before erasing: the callback may schedule new
        // events, which mutates the container.
        Entry e = calPop();
        now_ = e.when;
        e.cb(e.when);
        ++n;
    }
    return n;
}

std::size_t
EventQueue::drain()
{
    return runUntil(std::numeric_limits<Tick>::max());
}

void
EventQueue::reset()
{
    for (auto &b : buckets_)
        b.clear();
    count_ = 0;
    next_seq_ = 0;
    now_ = 0;
    search_from_ = 0;
}

void
EventQueue::shrink()
{
    if (count_ == 0) {
        // Empty: the whole table collapses back to its floor size.
        buckets_.assign(kMinBuckets, std::vector<Entry>());
    } else {
        // Pending events: rebucket into the smallest power-of-two table
        // that fits them.  calResize also re-calibrates the bucket
        // width and rewinds search_from_ to the earliest pending tick —
        // without the rewind, a day-walk starting from the stale
        // pre-shrink position could need a full fruitless lap plus the
        // min-over-fronts fallback on every pop until the walk caught
        // up.
        calResize(std::max(kMinBuckets, std::bit_ceil(count_)));
    }
    buckets_.shrink_to_fit();
    for (auto &b : buckets_)
        b.shrink_to_fit();
}

// --- Calendar -----------------------------------------------------------

std::size_t
EventQueue::bucketOf(Tick when) const
{
    return (static_cast<std::uint64_t>(when) >> bucket_shift_) &
           (buckets_.size() - 1);
}

// Each bucket is itself a binary min-heap on (when, seq), so a bucket
// holding a same-tick cluster of k events pops in O(log k) instead of
// the O(k) rescan a flat bucket would need (and the simulator's
// migration arrivals cluster heavily).  The heap invariant also lets
// calFind inspect only bucket FRONTS: walking days in increasing
// order, an entry of the current day inside a bucket would be earlier
// than any later-day entry, so it must BE the bucket front.

void
EventQueue::calPush(Entry &&e)
{
    if (count_ >= 2 * buckets_.size())
        calResize(buckets_.size() * 2);
    std::vector<Entry> &b = buckets_[bucketOf(e.when)];
    b.push_back(std::move(e));
    std::push_heap(b.begin(), b.end(), HeapLater{});
}

bool
EventQueue::calFind(std::size_t *bucket, std::size_t *index) const
{
    if (count_ == 0)
        return false;
    const std::size_t n = buckets_.size();
    *index = 0; // heap minimum is always the bucket front

    // Walk "days" forward from the last known minimum.  A day is one
    // bucket-width window; an entry belongs to the day its tick hashes
    // from, so entries a full table-lap ahead are skipped here and
    // found by the global fallback scan below.  No remaining entry can
    // sit in an earlier day than search_from_'s (every remaining
    // (when, seq) is at least the last popped one), so the first front
    // whose day matches is the global minimum.
    std::uint64_t day =
        static_cast<std::uint64_t>(search_from_) >> bucket_shift_;
    for (std::size_t lap = 0; lap < n; ++lap, ++day) {
        const std::vector<Entry> &b = buckets_[day & (n - 1)];
        if (!b.empty() &&
            (static_cast<std::uint64_t>(b.front().when) >>
             bucket_shift_) == day) {
            *bucket = day & (n - 1);
            return true;
        }
    }

    // Nothing within one lap of the horizon: pick the earliest front
    // (each front is its bucket's minimum, so fronts cover the queue).
    bool found = false;
    for (std::size_t bi = 0; bi < n; ++bi) {
        const std::vector<Entry> &b = buckets_[bi];
        if (b.empty())
            continue;
        if (!found || before(b.front(), buckets_[*bucket].front())) {
            found = true;
            *bucket = bi;
        }
    }
    SENTINEL_ASSERT(found, "calendar count/contents out of sync");
    return true;
}

EventQueue::Entry
EventQueue::calPop()
{
    std::size_t bi, i;
    calFind(&bi, &i);
    std::vector<Entry> &b = buckets_[bi];
    std::pop_heap(b.begin(), b.end(), HeapLater{});
    Entry e = std::move(b.back());
    b.pop_back();
    --count_;
    search_from_ = e.when;
    return e;
}

void
EventQueue::calResize(std::size_t nbuckets)
{
    std::vector<Entry> all;
    all.reserve(count_);
    Tick lo = std::numeric_limits<Tick>::max();
    Tick hi = 0;
    for (auto &b : buckets_) {
        for (Entry &e : b) {
            lo = std::min(lo, e.when);
            hi = std::max(hi, e.when);
            all.push_back(std::move(e));
        }
        b.clear();
    }

    // Re-calibrate the bucket width to the observed spacing: aim for
    // about one event per day across the current span.
    if (all.size() >= 2 && hi > lo) {
        std::uint64_t gap = static_cast<std::uint64_t>(hi - lo) /
                            (all.size() - 1);
        int width = static_cast<int>(std::bit_width(gap)) - 1;
        bucket_shift_ =
            static_cast<unsigned>(std::clamp(width, 0, 40));
    }

    // The old search position was a lower bound under the old bucket
    // width; after recalibration it can lag the earliest pending event
    // by arbitrarily many of the new (narrower) days, turning every
    // pop into a fruitless full lap plus the min-over-fronts fallback.
    // The exact earliest tick is known here — restart the day-walk at
    // it.
    if (!all.empty())
        search_from_ = lo;

    buckets_.resize(nbuckets);
    for (Entry &e : all)
        buckets_[bucketOf(e.when)].push_back(std::move(e));
    for (auto &b : buckets_)
        std::make_heap(b.begin(), b.end(), HeapLater{});
}

} // namespace sentinel::sim
