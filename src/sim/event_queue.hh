/**
 * @file
 * A minimal discrete-event queue.
 *
 * The training-step executor advances simulated time itself (operations
 * are serialized within a layer), but asynchronous machinery — the
 * migration engine's completion callbacks and periodic statistics
 * sampling — runs through this queue.  Events scheduled at the same tick
 * fire in insertion order (FIFO), which keeps runs deterministic.
 *
 * The FIFO guarantee is load-bearing for multi-tenant simulation: when
 * two jobs on the server's shared node clock schedule events at the
 * SAME tick (two arrivals, a step end colliding with an arbiter poll),
 * execution order is exactly schedule order — a stable sequence number
 * breaks the tie, never container internals (tests/sim/test_event_queue.cc
 * pins the interleaving down).
 *
 * The queue is a calendar queue (Brown 1988).  Events hash into
 * power-of-two time buckets by `when >> bucket_shift`; a pop walks
 * "days" forward from the last known minimum, so in the common
 * near-future case both schedule and pop are O(1) amortized and the
 * bucket vectors are reused without allocation.  The bucket width
 * re-calibrates to the observed event spacing whenever the table
 * resizes.  Total order is still exact: within a day the minimum
 * (when, seq) entry is selected, and a fruitless full lap falls back to
 * a global scan (events far beyond the current horizon).
 *
 * Its reference model is test-only: tests/sim/test_event_queue_diff.cc
 * keeps a sorted (when, seq) queue and diffs the pop order against it.
 */

#ifndef SENTINEL_SIM_EVENT_QUEUE_HH
#define SENTINEL_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/units.hh"

namespace sentinel::sim {

/** Priority queue of (tick, callback) pairs with FIFO tie-breaking. */
class EventQueue
{
  public:
    using Callback = std::function<void(Tick)>;

    EventQueue();

    /** Schedule @p cb to fire at absolute time @p when. */
    void schedule(Tick when, Callback cb);

    /** @return the time of the earliest pending event, or -1 if empty. */
    Tick nextEventTick() const;

    /**
     * Run every event with tick <= @p until (events may schedule further
     * events; those are honored if they also fall within the horizon).
     *
     * @return the number of events executed.
     */
    std::size_t runUntil(Tick until);

    /** Run everything that is pending, regardless of tick. */
    std::size_t drain();

    bool empty() const { return count_ == 0; }
    std::size_t size() const { return count_; }

    /** Time of the last executed event (0 before any run). */
    Tick now() const { return now_; }

    /**
     * Discard all pending events and rewind the clock and sequence
     * counter — a fresh queue for the next simulation on the same
     * object (the server reuses one queue across runs).  Storage is
     * retained for reuse; call shrink() to release it.
     */
    void reset();

    /**
     * Release all retained storage (the bucket vectors) back to the
     * allocator.  Long fuzz campaigns call this between cases so one
     * large case doesn't pin peak memory across thousands of
     * iterations.  Pending events survive: shrink() only drops *spare*
     * capacity — with events pending, the calendar rebuckets them into
     * the smallest table that fits and restarts its day-walk at the
     * earliest pending tick.
     */
    void shrink();

    /** Calendar bucket-table width; exposed so tests can pin
     *  shrink()'s collapse. */
    std::size_t bucketCount() const { return buckets_.size(); }

  private:
    struct Entry {
        Tick when;
        std::uint64_t seq;
        Callback cb;
    };

    /** True if a orders strictly before b: earlier tick, then FIFO. */
    static bool
    before(const Entry &a, const Entry &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    std::size_t bucketOf(Tick when) const;
    void calPush(Entry &&e);
    /** Pop the globally earliest entry. */
    Entry calPop();
    /** Locate the earliest entry: bucket + index, or false if empty. */
    bool calFind(std::size_t *bucket, std::size_t *index) const;
    /** Grow/recalibrate the table to fit @p count events. */
    void calResize(std::size_t nbuckets);

    std::vector<std::vector<Entry>> buckets_;
    unsigned bucket_shift_ = 10; ///< bucket width = 2^shift ticks
    /** Lower bound on the earliest pending tick (search start). */
    Tick search_from_ = 0;

    std::size_t count_ = 0;
    std::uint64_t next_seq_ = 0;
    Tick now_ = 0;
};

} // namespace sentinel::sim

#endif // SENTINEL_SIM_EVENT_QUEUE_HH
