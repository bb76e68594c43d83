/**
 * @file
 * Differential test: the extent-granular migration engine of
 * mem::HeterogeneousMemory against the page-at-a-time reference
 * (tests/support/ref_hm.hh).
 *
 * A seeded op generator drives both with the same sequence over 2-, 3-
 * and 4-tier chains with small tiers: range maps, batches of
 * mixed-source runs toward any tier (the middle ones included), single
 * page migrations, partial fills of a nearly full destination,
 * unmapRange while transfers are in flight (including cuts strictly
 * inside one pending run, which split it), pages freed in flight and
 * migrated again before their old arrival tick, teleports, commitUpTo
 * exactly at (and one tick before) an arrival, and bandwidth rescales
 * and channel stalls between batches.  After every op the tier
 * occupancy, HmStats and every channel's counters must agree, and so
 * must residentRange / inFlight / arrivalTime (per page and per range)
 * / flightInfo over the whole page window.
 */

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mem/hm.hh"
#include "support/ref_hm.hh"

namespace sentinel::mem {
namespace {

using sentinel::testing::RefHm;

constexpr PageId kWindow = 320;
constexpr int kOpsPerSeed = 1200;

/** How often the interesting cases hit. */
struct Coverage {
    std::uint64_t mixed_batches = 0;   ///< promote + demote in one batch
    std::uint64_t partial_fills = 0;   ///< batch stopped by a full tier
    std::uint64_t inflight_unmaps = 0; ///< unmap of a migrating page
    std::uint64_t split_unmaps = 0;    ///< unmap strictly inside a run
    std::uint64_t early_remigrations = 0; ///< freed in flight, migrated
                                          ///< again before old arrival
    std::uint64_t exact_commits = 0;   ///< commitUpTo(arrival) landed it
    std::uint64_t teleports = 0;
};

class HmCampaign
{
  public:
    HmCampaign(unsigned tiers, std::uint64_t seed)
        : rng_(seed), hm_(chainTiers(tiers), chainLinks(tiers)),
          ref_(chainTiers(tiers), chainLinks(tiers)), tiers_(tiers)
    {
    }

    void
    run(Coverage &cov)
    {
        for (int op = 0; op < kOpsPerSeed; ++op) {
            step(cov);
            if (::testing::Test::HasFatalFailure())
                return;
            compare(op);
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }

  private:
    std::uint64_t uniform(std::uint64_t n) { return rng_() % n; }

    /** Small tiers so batches fill them; the slowest holds everything. */
    static std::vector<TierParams>
    chainTiers(unsigned n)
    {
        std::vector<TierParams> out;
        for (unsigned t = 0; t < n; ++t) {
            std::uint64_t pages = t + 1 == n ? 4 * kWindow : 40 + 24 * t;
            out.push_back({ "t" + std::to_string(t), pages * kPageSize,
                            10e9, 10e9, 100, 100 });
        }
        return out;
    }

    /** Link bandwidths rise and fall along the chain. */
    static std::vector<MigrationParams>
    chainLinks(unsigned n)
    {
        static const double bw[] = { 3e9, 0.7e9, 5e9 };
        static const Tick startup[] = { 2000, 0, 700 };
        std::vector<MigrationParams> out;
        for (unsigned l = 0; l + 1 < n; ++l)
            out.push_back({ bw[l % 3], bw[(l + 1) % 3] / 2, startup[l % 3] });
        return out;
    }

    Tier randomTier() { return makeTier(static_cast<unsigned>(uniform(tiers_))); }

    /** Longest prefix of [p, p+want) with uniform mapped-ness. */
    std::uint64_t
    extent(PageId p, std::uint64_t want, bool mapped)
    {
        std::uint64_t n = 0;
        while (n < want && p + n < kWindow && ref_.isMapped(p + n) == mapped)
            ++n;
        return n;
    }

    /** A random mapped run, or an empty one. */
    PageRun
    mappedRun()
    {
        PageId p = uniform(kWindow);
        return { p, extent(p, 1 + uniform(48), true) };
    }

    void
    step(Coverage &cov)
    {
        const std::uint64_t op = uniform(100);
        if (op < 12) { // mapRange
            PageId p = uniform(kWindow);
            std::uint64_t n = extent(p, 1 + uniform(64), false);
            if (n == 0)
                return;
            Tier pref = randomTier();
            hm_.mapRange(p, n, pref);
            ref_.mapRange(p, n, pref);
        } else if (op < 20) { // unmapRange, often mid-flight
            PageRun r = mappedRun();
            if (r.empty())
                return;
            noteInflightUnmap(r, cov);
            hm_.unmapRange(r.first, r.count, now_);
            ref_.unmapRange(r.first, r.count, now_);
        } else if (op < 24) { // unmapRange inside one pending run
            PageRun r = insidePendingRun();
            if (r.empty())
                return;
            noteInflightUnmap(r, cov);
            hm_.unmapRange(r.first, r.count, now_);
            ref_.unmapRange(r.first, r.count, now_);
            if (uniform(2) == 0)
                return;
            // Reuse the freed pages at once: map them again and move
            // them while the cut transfer would still be in flight.
            Tier pref = randomTier();
            hm_.mapRange(r.first, r.count, pref);
            ref_.mapRange(r.first, r.count, pref);
            Tier dst = randomTier();
            ASSERT_EQ(hm_.migratePages({ &r, 1 }, dst, now_),
                      ref_.migratePages({ &r, 1 }, dst, now_));
            noteRemigrations(cov);
        } else if (op < 58) { // migratePages: a batch of runs
            std::vector<PageRun> runs;
            const std::uint64_t k = 1 + uniform(4);
            for (std::uint64_t i = 0; i < k; ++i)
                if (PageRun r = mappedRun(); !r.empty())
                    runs.push_back(r);
            Tier dst = randomTier();
            HmStats before = ref_.stats();
            std::size_t got = hm_.migratePages(runs, dst, now_);
            ASSERT_EQ(got, ref_.migratePages(runs, dst, now_));
            if (ref_.stats().promoted_pages > before.promoted_pages &&
                ref_.stats().demoted_pages > before.demoted_pages)
                ++cov.mixed_batches;
            if (got > 0 && ref_.tier(dst).free() < kPageSize)
                ++cov.partial_fills;
            noteRemigrations(cov);
        } else if (op < 66) { // migratePage
            PageRun r = mappedRun();
            if (r.empty())
                return;
            Tier dst = randomTier();
            ASSERT_EQ(hm_.migratePage(r.first, dst, now_),
                      ref_.migratePage(r.first, dst, now_));
            noteRemigrations(cov);
        } else if (op < 71) { // teleportPage
            PageRun r = mappedRun();
            if (r.empty())
                return;
            Tier dst = randomTier();
            bool moved = hm_.teleportPage(r.first, dst, now_);
            ASSERT_EQ(moved, ref_.teleportPage(r.first, dst, now_));
            cov.teleports += moved;
        } else if (op < 83) { // commitUpTo at an exact arrival tick
            PageId p = uniform(kWindow);
            if (!ref_.isMapped(p))
                return;
            bool flying = hm_.inFlight(p, now_);
            ASSERT_EQ(flying, ref_.inFlight(p, now_));
            if (!flying)
                return;
            Tick at = ref_.arrivalTime(p) - (uniform(3) == 0 ? 1 : 0);
            now_ = std::max(now_, at);
            hm_.commitUpTo(now_);
            ref_.commitUpTo(now_);
            bool still = hm_.inFlight(p, now_);
            ASSERT_EQ(still, ref_.inFlight(p, now_));
            cov.exact_commits += !still;
        } else if (op < 92) { // let time pass
            now_ += static_cast<Tick>(uniform(60'000));
        } else if (op < 96) { // re-rate every link
            static const double scale[] = { 0.25, 0.5, 1.0, 1.9, 3.7 };
            double up = scale[uniform(5)];
            double down = scale[uniform(5)];
            hm_.setMigrationBandwidthScale(up, down);
            ref_.setMigrationBandwidthScale(up, down);
        } else { // stall the links
            Tick up = static_cast<Tick>(uniform(3) * 20'000);
            Tick down = static_cast<Tick>(uniform(3) * 20'000);
            hm_.stallMigration(now_, up, down);
            ref_.stallMigration(now_, up, down);
        }
    }

    /**
     * A random sub-range of one in-flight run, strictly inside it when
     * the run is long enough (so the unmap splits it), or an empty run.
     */
    PageRun
    insidePendingRun()
    {
        PageId p = uniform(kWindow);
        if (!ref_.isMapped(p) || !ref_.inFlight(p, now_))
            return {};
        hm_.commitUpTo(now_); // the reference just committed to now_
        PageId lo = p;
        PageId hi = p + 1;
        while (lo > 0 && ref_.sameRun(lo - 1, p))
            --lo;
        while (hi < kWindow && ref_.sameRun(hi, p))
            ++hi;
        if (hi - lo < 3)
            return { p, 1 };
        const PageId first = lo + 1 + uniform(hi - lo - 2);
        return { first, 1 + uniform(hi - 1 - first) };
    }

    /** Count the unmap's in-flight pages and whether it splits a run;
     *  remember the freed pages' old arrival ticks. */
    void
    noteInflightUnmap(PageRun r, Coverage &cov)
    {
        for (PageId p = r.first; p < r.endPage(); ++p) {
            bool flying = hm_.inFlight(p, now_);
            ASSERT_EQ(flying, ref_.inFlight(p, now_));
            cov.inflight_unmaps += flying;
            if (flying)
                freed_arrival_[p] = ref_.arrivalTime(p);
        }
        // A split: the run's pages flank the cut and fill it.
        bool split = r.first > 0;
        for (PageId q = r.first; split && q <= r.endPage(); ++q)
            split = ref_.sameRun(r.first - 1, q);
        cov.split_unmaps += split;
    }

    /** After a migration op: pages freed in flight that are moving
     *  again before their old transfer would have landed. */
    void
    noteRemigrations(Coverage &cov)
    {
        for (auto it = freed_arrival_.begin(); it != freed_arrival_.end();) {
            if (it->second <= now_) {
                it = freed_arrival_.erase(it);
            } else if (ref_.isMapped(it->first) &&
                       ref_.arrivalTime(it->first, 1) >= 0) {
                ++cov.early_remigrations;
                it = freed_arrival_.erase(it);
            } else {
                ++it;
            }
        }
    }

    void
    compare(int op)
    {
        // Occupancy first: it is read without committing, so it also
        // pins down when each engine commits.
        for (unsigned t = 0; t < tiers_; ++t)
            ASSERT_EQ(hm_.tier(makeTier(t)).used(),
                      ref_.tier(makeTier(t)).used())
                << "op " << op << " tier " << t;
        const HmStats &a = hm_.stats();
        const HmStats &b = ref_.stats();
        ASSERT_EQ(a.promoted_bytes, b.promoted_bytes) << "op " << op;
        ASSERT_EQ(a.demoted_bytes, b.demoted_bytes) << "op " << op;
        ASSERT_EQ(a.promoted_pages, b.promoted_pages) << "op " << op;
        ASSERT_EQ(a.demoted_pages, b.demoted_pages) << "op " << op;
        for (unsigned l = 0; l + 1 < tiers_; ++l) {
            for (bool up : { true, false }) {
                const sim::BandwidthChannel &x = hm_.linkChannel(l, up);
                const sim::BandwidthChannel &y = ref_.linkChannel(l, up);
                ASSERT_EQ(x.busyUntil(), y.busyUntil())
                    << "op " << op << " link " << l << " up " << up;
                ASSERT_EQ(x.busyTime(), y.busyTime()) << "op " << op;
                ASSERT_EQ(x.numTransfers(), y.numTransfers()) << "op " << op;
                ASSERT_EQ(x.bytesTransferred(), y.bytesTransferred())
                    << "op " << op;
            }
        }
        PageId p = 0;
        while (p < kWindow) {
            ASSERT_EQ(hm_.isMapped(p), ref_.isMapped(p)) << "page " << p;
            std::uint64_t n = extent(p, kWindow, true);
            if (n == 0) {
                ++p;
                continue;
            }
            PageRunState x = hm_.residentRange(p, n, now_);
            PageRunState y = ref_.residentRange(p, n, now_);
            ASSERT_EQ(hm_.arrivalTime(p, n), ref_.arrivalTime(p, n))
                << "op " << op << " range " << p << "+" << n;
            ASSERT_EQ(x.tier, y.tier) << "op " << op << " page " << p;
            ASSERT_EQ(x.in_flight, y.in_flight) << "op " << op << " page " << p;
            ASSERT_EQ(x.count, y.count) << "op " << op << " page " << p;
            for (PageId q = p; q < p + x.count; ++q) {
                ASSERT_EQ(hm_.inFlight(q, now_), x.in_flight);
                if (!x.in_flight)
                    continue;
                ASSERT_EQ(hm_.arrivalTime(q), ref_.arrivalTime(q))
                    << "op " << op << " page " << q;
                auto fa = hm_.flightInfo(q);
                auto fb = ref_.flightInfo(q);
                ASSERT_EQ(fa.toward_fast, fb.toward_fast) << "page " << q;
                ASSERT_EQ(fa.link, fb.link) << "page " << q;
            }
            p += x.count;
        }
    }

    std::mt19937_64 rng_;
    HeterogeneousMemory hm_;
    RefHm ref_;
    unsigned tiers_;
    Tick now_ = 0;
    /** Pages freed in flight, by the tick their transfer would have
     *  landed. */
    std::map<PageId, Tick> freed_arrival_;
};

TEST(HmDiff, MatchesPerPageReferenceOverSeededOps)
{
    for (unsigned tiers : { 2u, 3u, 4u }) {
        Coverage cov;
        for (std::uint64_t seed : { 1ull, 0x9e3779b97f4a7c15ull, 2024ull }) {
            HmCampaign c(tiers, seed * 31 + tiers);
            c.run(cov);
            ASSERT_FALSE(::testing::Test::HasFatalFailure())
                << tiers << " tiers, seed " << seed;
        }
        // The op mix must actually reach the interesting cases.
        if (tiers > 2) {
            EXPECT_GT(cov.mixed_batches, 0u) << tiers << " tiers";
        }
        EXPECT_GT(cov.partial_fills, 0u) << tiers << " tiers";
        EXPECT_GT(cov.inflight_unmaps, 0u) << tiers << " tiers";
        EXPECT_GT(cov.split_unmaps, 0u) << tiers << " tiers";
        EXPECT_GT(cov.early_remigrations, 0u) << tiers << " tiers";
        EXPECT_GT(cov.exact_commits, 0u) << tiers << " tiers";
        EXPECT_GT(cov.teleports, 0u) << tiers << " tiers";
    }
}

} // namespace
} // namespace sentinel::mem
