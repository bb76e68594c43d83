/**
 * @file
 * Differential test: mem::PageTable against the map-backed reference
 * model (tests/support/ref_page_table.hh).
 *
 * A seeded op generator drives both tables with the same sequence of
 * every public operation — range map, range unmap (in flight or not),
 * migration run begin and commit, clear — with run lengths that often
 * end in a partial eight-page word, over two page windows that
 * each straddle a 2^16-page chunk seam (one low, one at a sparse
 * 2^32-page base).  Commits land random sub-runs of in-flight pages at
 * random destinations; misuses (a begin over a moving page, a commit
 * of an idle one) must be refused by both.  After every op the
 * counters must agree, and so must isMapped / runState / anyInFlight
 * on the op's own range and on random probes.
 */

#include <cstdint>
#include <random>
#include <stdexcept>

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

enum Op { kMapRange, kUnmapRange, kBeginRun, kCommitRun, kMisuse, kClear,
          kNumOps };

/** How often each op ran, and how often the interesting cases hit. */
struct Coverage {
    std::uint64_t ops[kNumOps] = {};
    std::uint64_t straddling = 0;      ///< range ops crossing a chunk seam
    /** Range ops longer than a word whose length is no multiple of 8:
     *  the word-wide checks then end in a byte tail. */
    std::uint64_t ragged = 0;
    std::uint64_t inflight_unmaps = 0; ///< unmaps freeing moving pages
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
        // One draw in four is a few words plus a 1-7 page tail.
        if (uniform(4) == 0)
            return 8 * (1 + uniform(6)) + 1 + uniform(7);
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
        if (count > 8 && count % 8 != 0)
            ++cov.ragged;
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
        if (op < 220) { // mapRange
            std::uint64_t n = extent(p, randomLen(), false);
            if (n == 0)
                return;
            Tier t = randomTier();
            pt_.mapRange(p, n, t);
            ref_.mapRange(p, n, t);
            ++cov.ops[kMapRange];
            noteRange(cov, p, n);
        } else if (op < 380) { // unmapRange, in flight or not
            std::uint64_t n = extent(p, randomLen(), true);
            if (n == 0)
                return;
            if (ref_.anyInFlight(p, n))
                ++cov.inflight_unmaps;
            TierPages a = pt_.unmapRange(p, n);
            TierPages b = ref_.unmapRange(p, n);
            for (unsigned t = 0; t < kMaxTiers; ++t)
                ASSERT_EQ(a[t], b[t]) << "unmapRange(" << p << ", " << n
                                      << ") tier " << t;
            ++cov.ops[kUnmapRange];
            noteRange(cov, p, n);
        } else if (op < 640) { // beginMigrationRun over an idle prefix
            std::uint64_t n = extent(p, randomLen(), true);
            if (n == 0)
                return;
            PageRunState rs = ref_.runState(p, n);
            if (rs.in_flight)
                return;
            Tier dest = otherTier(rs.tier);
            pt_.beginMigrationRun(p, rs.count, rs.tier, dest);
            ref_.beginMigrationRun(p, rs.count, rs.tier, dest);
            ++cov.ops[kBeginRun];
            noteRange(cov, p, rs.count);
        } else if (op < 900) { // commitMigrationRun over a moving prefix
            std::uint64_t n = extent(p, randomLen(), true);
            if (n == 0)
                return;
            PageRunState rs = ref_.runState(p, n);
            if (!rs.in_flight)
                return;
            std::uint64_t k = 1 + uniform(rs.count);
            Tier dest = otherTier(rs.tier);
            pt_.commitMigrationRun(p, k, rs.tier, dest);
            ref_.commitMigrationRun(p, k, rs.tier, dest);
            ++cov.ops[kCommitRun];
            noteRange(cov, p, k);
        } else if (op < 999) { // a begin or commit both must refuse
            std::uint64_t n = extent(p, randomLen(), true);
            if (n == 0)
                return;
            PageRunState rs = ref_.runState(p, n);
            if (rs.count == n)
                return; // uniform: nothing to trip over
            // The range runs into a page of the other flight state (or
            // a source mismatch); the production table checks a piece
            // before changing it, so only ranges inside one chunk are
            // refused untouched.
            if (straddles(p, n))
                return;
            if (rs.in_flight) {
                EXPECT_THROW(pt_.commitMigrationRun(p, n, rs.tier,
                                                    otherTier(rs.tier)),
                             std::logic_error);
            } else {
                PageRunState next = ref_.runState(p + rs.count, 1);
                if (!next.in_flight)
                    return; // a tier change alone is a legal begin
                EXPECT_THROW(pt_.beginMigrationRun(p, n, rs.tier,
                                                   otherTier(rs.tier)),
                             std::logic_error);
            }
            ++cov.ops[kMisuse];
            noteRange(cov, p, n);
        } else { // clear
            pt_.clear();
            ref_.clear();
            ++cov.ops[kClear];
        }
        applied_ = true;
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
    expectSameState(PageId p, int op)
    {
        PageRunState a = pt_.runState(p, 1);
        PageRunState b = ref_.runState(p, 1);
        ASSERT_EQ(tierIndex(a.tier), tierIndex(b.tier))
            << "page " << p << " after op " << op;
        ASSERT_EQ(a.in_flight, b.in_flight)
            << "page " << p << " after op " << op;
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
        expectSameState(p, op);
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
                    expectSameState(p, op);
            }
        }
    }

    std::mt19937_64 rng_;
    PageTable pt_;
    RefPageTable ref_;
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
    // across a chunk seam, and unmaps of pages still in flight.
    for (int op = 0; op < kNumOps; ++op)
        EXPECT_GT(cov.ops[op], 0u) << "op " << op << " never ran";
    EXPECT_GT(cov.straddling, 100u);
    EXPECT_GT(cov.ragged, 1000u);
    EXPECT_GT(cov.inflight_unmaps, 100u);
}

} // namespace
} // namespace sentinel::mem
