/**
 * @file
 * Differential test: mem::PageTable against the map-backed reference
 * model (tests/support/ref_page_table.hh).
 *
 * A seeded op generator drives both tables with the same sequence of
 * every public operation — single and range map/unmap, single and run
 * migration begin/commit, cancel, clear — over two page windows that
 * each straddle a 2^16-page chunk seam (one low, one at a sparse
 * 2^32-page base).  Begun migrations are remembered and committed
 * later, so many commits arrive after their pages were freed,
 * remapped, cancelled or cleared and must be rejected as stale.  After
 * every op the counters must agree, and so must isMapped / entry /
 * runState / anyInFlight on the op's own range and on random probes.
 */

#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "mem/page_table.hh"
#include "support/ref_page_table.hh"

namespace sentinel::mem {
namespace {

using sentinel::testing::RefPageTable;

constexpr std::uint64_t kChunkPages = 1ull << 16;
constexpr std::uint64_t kWindow = 4096;
/** Window starts: each window is centred on a chunk seam. */
constexpr PageId kWindowBase[] = { kChunkPages - kWindow / 2,
                                   (5ull << 32) - kWindow / 2 };
constexpr unsigned kTiers = 4;
constexpr int kOpsPerSeed = 10'000;

enum Op {
    kMap, kMapRange, kUnmap, kUnmapRange, kBegin, kBeginRun, kCommit,
    kCommitRun, kCancel, kClear, kNumOps
};

/** How often each op ran, and how often the interesting cases hit. */
struct Coverage {
    std::uint64_t ops[kNumOps] = {};
    std::uint64_t straddling = 0;   ///< range ops crossing a chunk seam
    std::uint64_t stale_commits = 0; ///< single commits rejected
    std::uint64_t partial_runs = 0;  ///< run commits with stale pages
};

class DiffCampaign
{
  public:
    explicit DiffCampaign(std::uint64_t seed) : rng_(seed) {}

    /** Run @p ops ops; stops at the first mismatch (fatal failure). */
    void
    run(int ops, Coverage &cov)
    {
        int done = 0;
        while (done < ops) {
            step(cov);
            if (::testing::Test::HasFatalFailure())
                return;
            if (!applied_)
                continue;
            ++done;
            checkCounters(done);
            if (::testing::Test::HasFatalFailure())
                return;
            for (int i = 0; i < 4; ++i)
                probe(randomPage(), randomLen(), done);
            if (done % 2000 == 0)
                sweep(done);
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }

  private:
    /** A begun migration: pages [first, first+count) from seq0 on. */
    struct Begun {
        PageId first;
        std::uint64_t count;
        std::uint64_t seq0;
    };

    std::uint64_t uniform(std::uint64_t n) { return rng_() % n; }

    PageId
    randomPage()
    {
        // Three of four ops land in the low window.
        PageId base = kWindowBase[uniform(4) == 0 ? 1 : 0];
        return base + uniform(kWindow);
    }

    std::uint64_t
    randomLen()
    {
        return 1 + (uniform(8) == 0 ? uniform(1500) : uniform(300));
    }

    Tier randomTier() { return makeTier(uniform(kTiers)); }

    Tier
    otherTier(Tier t)
    {
        unsigned i = tierIndex(t) + 1 + uniform(kTiers - 1);
        return makeTier(i % kTiers);
    }

    /** Leading pages of [p, p+max) mapped (or not) in the reference. */
    std::uint64_t
    extent(PageId p, std::uint64_t max, bool mapped) const
    {
        std::uint64_t n = 0;
        while (n < max && ref_.isMapped(p + n) == mapped)
            ++n;
        return n;
    }

    static bool
    straddles(PageId first, std::uint64_t count)
    {
        return (first / kChunkPages) != ((first + count - 1) / kChunkPages);
    }

    void
    noteRange(Coverage &cov, PageId first, std::uint64_t count)
    {
        if (straddles(first, count))
            ++cov.straddling;
        last_first_ = first;
        last_count_ = count;
    }

    /** One generated op; applied_ stays false if the drawn target did
     *  not fit it. */
    void
    step(Coverage &cov)
    {
        const int op = static_cast<int>(uniform(1000));
        PageId p = randomPage();
        applied_ = false;
        last_count_ = 0;
        if (op < 50) { // map
            if (ref_.isMapped(p))
                return;
            Tier t = randomTier();
            pt_.map(p, t);
            ref_.map(p, t);
            ++cov.ops[kMap];
            noteRange(cov, p, 1);
        } else if (op < 190) { // mapRange
            std::uint64_t n = extent(p, randomLen(), false);
            if (n == 0)
                return;
            Tier t = randomTier();
            pt_.mapRange(p, n, t);
            ref_.mapRange(p, n, t);
            ++cov.ops[kMapRange];
            noteRange(cov, p, n);
        } else if (op < 240) { // unmap, in flight or not
            if (!ref_.isMapped(p))
                return;
            pt_.unmap(p);
            ref_.unmap(p);
            ++cov.ops[kUnmap];
        } else if (op < 320) { // unmapRange
            std::uint64_t n = extent(p, randomLen(), true);
            if (n == 0)
                return;
            // unmapRange wants an idle range: cancel first, exactly as
            // HeterogeneousMemory::unmapRange does.
            for (std::uint64_t i = 0; i < n; ++i) {
                if (ref_.entry(p + i).in_flight) {
                    pt_.cancelMigration(p + i);
                    ref_.cancelMigration(p + i);
                }
            }
            pt_.unmapRange(p, n);
            ref_.unmapRange(p, n);
            ++cov.ops[kUnmapRange];
            if (straddles(p, n))
                ++cov.straddling;
        } else if (op < 440) { // beginMigration
            if (!ref_.isMapped(p) || ref_.entry(p).in_flight)
                return;
            Tier dest = otherTier(ref_.entry(p).tier);
            Tick arrival = static_cast<Tick>(uniform(1'000'000));
            std::uint64_t seq = pt_.beginMigration(p, dest, arrival);
            ASSERT_EQ(seq, ref_.beginMigration(p, dest, arrival));
            remember({ p, 1, seq });
            ++cov.ops[kBegin];
            noteRange(cov, p, 1);
        } else if (op < 590) { // beginMigrationRun
            std::uint64_t n = extent(p, randomLen(), true);
            if (n == 0)
                return;
            PageRunState rs = ref_.runState(p, n);
            if (rs.in_flight)
                return;
            Tier dest = otherTier(rs.tier);
            // Up to three arrival lines, as a multi-leg transfer has.
            sim::ArrivalCurve arrivals;
            const unsigned lines = 1 + static_cast<unsigned>(uniform(3));
            for (unsigned i = 0; i < lines; ++i)
                arrivals.add(static_cast<Tick>(uniform(1'000'000)),
                             static_cast<Tick>(uniform(100)));
            std::uint64_t seq0 =
                pt_.beginMigrationRun(p, rs.count, dest, arrivals);
            ASSERT_EQ(seq0,
                      ref_.beginMigrationRun(p, rs.count, dest, arrivals));
            remember({ p, rs.count, seq0 });
            ++cov.ops[kBeginRun];
            noteRange(cov, p, rs.count);
        } else if (op < 710) { // commitMigration, often stale
            if (begun_.empty())
                return;
            const Begun &b = begun_[uniform(begun_.size())];
            std::uint64_t k = uniform(b.count);
            bool landed = pt_.commitMigration(b.first + k, b.seq0 + k);
            ASSERT_EQ(landed, ref_.commitMigration(b.first + k, b.seq0 + k))
                << "commit of page " << b.first + k;
            if (!landed)
                ++cov.stale_commits;
            ++cov.ops[kCommit];
            noteRange(cov, b.first + k, 1);
        } else if (op < 860) { // commitMigrationRun over a sub-run
            if (begun_.empty())
                return;
            std::size_t idx = uniform(begun_.size());
            Begun b = begun_[idx];
            std::uint64_t skip = uniform(b.count);
            std::uint64_t n = 1 + uniform(b.count - skip);
            std::uint64_t done =
                pt_.commitMigrationRun(b.first + skip, n, b.seq0 + skip);
            ASSERT_EQ(done, ref_.commitMigrationRun(b.first + skip, n,
                                                    b.seq0 + skip))
                << "run commit at page " << b.first + skip;
            if (done < n)
                ++cov.partial_runs;
            // Keep half the runs around for a later (stale) re-commit.
            if (uniform(2) == 0) {
                begun_[idx] = begun_.back();
                begun_.pop_back();
            }
            ++cov.ops[kCommitRun];
            noteRange(cov, b.first + skip, n);
        } else if (op < 999) { // cancelMigration
            if (!ref_.isMapped(p) || !ref_.entry(p).in_flight)
                return;
            pt_.cancelMigration(p);
            ref_.cancelMigration(p);
            ++cov.ops[kCancel];
            noteRange(cov, p, 1);
        } else { // clear
            pt_.clear();
            ref_.clear();
            ++cov.ops[kClear];
        }
        applied_ = true;
    }

    /** Track a begun migration, oldest dropped past a bound. */
    void
    remember(Begun b)
    {
        if (begun_.size() >= 64)
            begun_.erase(begun_.begin());
        begun_.push_back(b);
    }

    void
    checkCounters(int op)
    {
        ASSERT_EQ(pt_.numMapped(), ref_.numMapped()) << "after op " << op;
        ASSERT_EQ(pt_.numInFlight(), ref_.numInFlight())
            << "after op " << op;
        if (last_count_ > 0)
            probe(last_first_, last_count_, op);
    }

    void
    expectSameEntry(PageId p, int op)
    {
        PageEntry a = pt_.entry(p);
        PageEntry b = ref_.entry(p);
        ASSERT_EQ(tierIndex(a.tier), tierIndex(b.tier))
            << "page " << p << " after op " << op;
        ASSERT_EQ(a.in_flight, b.in_flight)
            << "page " << p << " after op " << op;
        if (!b.in_flight)
            return; // dest/arrival/seq are meaningful only in flight
        ASSERT_EQ(tierIndex(a.dest), tierIndex(b.dest))
            << "page " << p << " after op " << op;
        ASSERT_EQ(a.arrival, b.arrival)
            << "page " << p << " after op " << op;
        ASSERT_EQ(a.seq, b.seq) << "page " << p << " after op " << op;
    }

    /** Compare every query on [p, p+len), clipped to its mapped
     *  prefix for the range queries (they require mapped pages). */
    void
    probe(PageId p, std::uint64_t len, int op)
    {
        ASSERT_EQ(pt_.isMapped(p), ref_.isMapped(p))
            << "page " << p << " after op " << op;
        if (!ref_.isMapped(p))
            return;
        expectSameEntry(p, op);
        std::uint64_t n = extent(p, len, true);
        PageRunState a = pt_.runState(p, n);
        PageRunState b = ref_.runState(p, n);
        ASSERT_EQ(a.count, b.count)
            << "runState(" << p << ", " << n << ") after op " << op;
        ASSERT_EQ(tierIndex(a.tier), tierIndex(b.tier));
        ASSERT_EQ(a.in_flight, b.in_flight);
        ASSERT_EQ(pt_.anyInFlight(p, n), ref_.anyInFlight(p, n))
            << "anyInFlight(" << p << ", " << n << ") after op " << op;
    }

    /** Every page of both windows. */
    void
    sweep(int op)
    {
        for (PageId base : kWindowBase) {
            for (PageId p = base; p < base + kWindow; ++p) {
                ASSERT_EQ(pt_.isMapped(p), ref_.isMapped(p))
                    << "page " << p << " after op " << op;
                if (ref_.isMapped(p))
                    expectSameEntry(p, op);
            }
        }
    }

    std::mt19937_64 rng_;
    PageTable pt_;
    RefPageTable ref_;
    std::vector<Begun> begun_;
    bool applied_ = false;
    PageId last_first_ = 0;
    std::uint64_t last_count_ = 0;
};

TEST(PageTableDiff, MatchesReferenceOverSeededOpSequences)
{
    Coverage cov;
    for (std::uint64_t seed : { 1ull, 2ull, 3ull, 0x5eedull, 0xc0ffeeull }) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        DiffCampaign campaign(seed);
        campaign.run(kOpsPerSeed, cov);
        if (HasFatalFailure())
            return;
    }
    // The campaign must exercise what it claims to: every op, ranges
    // across a chunk seam, and commits that arrive stale.
    for (int op = 0; op < kNumOps; ++op)
        EXPECT_GT(cov.ops[op], 0u) << "op " << op << " never ran";
    EXPECT_GT(cov.straddling, 100u);
    EXPECT_GT(cov.stale_commits, 100u);
    EXPECT_GT(cov.partial_runs, 100u);
}

} // namespace
} // namespace sentinel::mem
