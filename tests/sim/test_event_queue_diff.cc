/**
 * @file
 * Differential test: the calendar event queue must be observationally
 * identical to a test-only reference queue, a std::map sorted by
 * (when, seq).  Both promise one total order — (when, seq) with seq
 * breaking same-tick ties FIFO — so the exact (tick, id) pop sequence
 * over a randomized workload has to match element-for-element,
 * including cascaded events scheduled from inside callbacks (whose seq
 * numbers only line up if every earlier pop already did) and a mid-run
 * reset()/shrink().
 */

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.hh"

namespace sentinel::sim {
namespace {

using PopRecord = std::vector<std::pair<Tick, int>>;

/**
 * The reference model: every pending event in one std::map keyed by
 * (when, seq), popped from the front.  Same interface as EventQueue
 * (shrink() has nothing to release).
 */
class RefQueue
{
  public:
    void
    schedule(Tick when, EventQueue::Callback cb)
    {
        pending_.emplace(std::make_pair(when, next_seq_++), std::move(cb));
    }

    std::size_t
    runUntil(Tick until)
    {
        std::size_t n = 0;
        while (!pending_.empty() && pending_.begin()->first.first <= until) {
            auto node = pending_.extract(pending_.begin());
            now_ = node.key().first;
            node.mapped()(now_);
            ++n;
        }
        return n;
    }

    std::size_t drain() { return runUntil(std::numeric_limits<Tick>::max()); }

    void
    reset()
    {
        pending_.clear();
        next_seq_ = 0;
        now_ = 0;
    }

    void shrink() {}
    std::size_t size() const { return pending_.size(); }
    Tick now() const { return now_; }

  private:
    std::map<std::pair<Tick, std::uint64_t>, EventQueue::Callback> pending_;
    std::uint64_t next_seq_ = 0;
    Tick now_ = 0;
};

void
expectSamePops(const PopRecord &cal, const PopRecord &ref)
{
    ASSERT_EQ(cal.size(), ref.size());
    for (std::size_t i = 0; i < cal.size(); ++i) {
        ASSERT_EQ(cal[i], ref[i]) << "diverged at pop " << i;
    }
}

/**
 * One randomized campaign driven into a fresh Queue: bursts of events
 * with heavy same-tick collisions, staged runUntil() horizons, a
 * sprinkle of far-future stragglers, and (when @p with_reset) a
 * mid-run reset() + shrink() while events are still pending.
 * Deterministic in the seed, so both queues fed the same seed see the
 * same input.
 */
template <typename Queue>
PopRecord
runCampaign(std::uint64_t seed, int rounds, int burst, bool with_reset)
{
    Queue q;
    PopRecord popped;
    std::mt19937_64 rng(seed);
    int next_id = 0;

    for (int round = 0; round < rounds; ++round) {
        if (with_reset && round == rounds / 2) {
            q.reset();
            q.shrink();
        }
        Tick base = q.now();
        for (int i = 0; i < burst; ++i) {
            std::uint64_t r = rng();
            // Quantized offsets force same-tick collisions; ~1/16 of
            // events land far ahead to stress the calendar's lap
            // logic and the global fallback scan.
            Tick when = base + ((r & 15) == 0
                                    ? static_cast<Tick>(r % 3'000'000)
                                    : static_cast<Tick>((r >> 4) % 64) *
                                          100);
            int id = next_id++;
            q.schedule(when, [&q, &popped, &next_id, id, r](Tick t) {
                popped.emplace_back(t, id);
                // Every eighth event cascades a follow-up; its seq is
                // allocated at pop time, so cascades only agree across
                // queues if the whole prior pop order agrees.
                if ((r & 7) == 0) {
                    int cid = next_id++;
                    q.schedule(t + static_cast<Tick>(r % 50),
                               [&popped, cid](Tick t2) {
                                   popped.emplace_back(t2, cid);
                               });
                }
            });
        }
        // Partial horizon: leaves a tail pending across rounds so
        // later bursts interleave with leftovers.
        q.runUntil(base + static_cast<Tick>(rng() % 5000));
    }
    q.drain();
    return popped;
}

TEST(EventQueueDiff, CalendarMatchesReferenceOverRandomizedCampaign)
{
    // 10 rounds x 1000 events (plus ~12% cascades) ≈ 11k pops.
    expectSamePops(runCampaign<EventQueue>(0x5eed5eedull, 10, 1000, false),
                   runCampaign<RefQueue>(0x5eed5eedull, 10, 1000, false));
}

TEST(EventQueueDiff, CalendarMatchesReferenceAcrossMidRunReset)
{
    expectSamePops(runCampaign<EventQueue>(0xfeedbeefull, 8, 600, true),
                   runCampaign<RefQueue>(0xfeedbeefull, 8, 600, true));
}

TEST(EventQueueDiff, SameTickFifoUnderCollisionStorm)
{
    // All events on ONE tick: pure FIFO, worst case for the calendar
    // (a single bucket holds everything).
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 2000; ++i)
        q.schedule(777, [&order, i](Tick) { order.push_back(i); });
    EXPECT_EQ(q.drain(), 2000u);
    ASSERT_EQ(order.size(), 2000u);
    for (int i = 0; i < 2000; ++i)
        ASSERT_EQ(order[i], i);
}

TEST(EventQueueDiff, ShrinkPreservesPendingEvents)
{
    EventQueue q;
    std::vector<Tick> fired;
    for (Tick t = 0; t < 100; ++t)
        q.schedule(t * 10, [&fired](Tick at) { fired.push_back(at); });
    q.runUntil(490);
    q.shrink();
    q.drain();
    ASSERT_EQ(fired.size(), 100u);
    for (Tick t = 0; t < 100; ++t)
        EXPECT_EQ(fired[static_cast<std::size_t>(t)], t * 10);
}

TEST(EventQueueDiff, MidCampaignShrinkCollapsesTableAndKeepsOrder)
{
    // Regression: shrink() used to release spare bucket capacity but
    // never the grown bucket *table* itself when events were pending,
    // and the recalibrated day-walk restarted from a stale pre-shrink
    // position.  Grow the calendar with a big concurrent burst, pop
    // most of it, shrink mid-campaign with a pending tail, then keep
    // scheduling across the shrunk table: the table must collapse to
    // the smallest power-of-two fit and the pop order must stay
    // element-for-element identical to the reference queue.
    auto campaign = [](auto &q, auto after_shrink) {
        PopRecord popped;
        std::mt19937_64 rng(0xca1e9da7ull);
        int next_id = 0;
        // Phase 1: one burst large enough to grow the table well past
        // its kMinBuckets floor (growth triggers at count >= 2*size).
        for (int i = 0; i < 5000; ++i) {
            int id = next_id++;
            Tick when = static_cast<Tick>(rng() % 1'000'000);
            q.schedule(when, [&popped, id](Tick t) {
                popped.emplace_back(t, id);
            });
        }
        q.runUntil(900'000); // leaves a far-future tail pending
        q.shrink();
        after_shrink(q);
        // Phase 2: the shrunk table keeps absorbing new work that
        // interleaves with the surviving tail.
        for (int i = 0; i < 1000; ++i) {
            int id = next_id++;
            Tick when = q.now() + static_cast<Tick>(rng() % 200'000);
            q.schedule(when, [&popped, id](Tick t) {
                popped.emplace_back(t, id);
            });
        }
        q.drain();
        return popped;
    };

    EventQueue cal_q;
    RefQueue ref_q;
    std::size_t pending = 0;
    std::size_t buckets = 0;
    PopRecord cal = campaign(cal_q, [&](EventQueue &q) {
        pending = q.size();
        buckets = q.bucketCount();
    });
    PopRecord ref = campaign(ref_q, [](RefQueue &) {});

    ASSERT_GT(pending, 0u) << "campaign must shrink with events pending";
    // 5000 concurrent events grow the table to 4096 buckets; after the
    // shrink it must fit the tail exactly (floor 16).
    EXPECT_EQ(buckets, std::max<std::size_t>(16, std::bit_ceil(pending)));
    EXPECT_LT(buckets, 4096u);
    expectSamePops(cal, ref);
}

} // namespace
} // namespace sentinel::sim
