#include <cctype>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "mem/page_table.hh"

namespace sentinel::mem {
namespace {

TEST(PageTable, MapUnmap)
{
    PageTable pt;
    EXPECT_FALSE(pt.isMapped(7));
    pt.mapRange(7, 1, Tier::Slow);
    EXPECT_TRUE(pt.isMapped(7));
    EXPECT_EQ(pt.runState(7, 1).tier, Tier::Slow);
    EXPECT_EQ(pt.numMapped(), 1u);
    pt.unmapRange(7, 1);
    EXPECT_FALSE(pt.isMapped(7));
}

TEST(PageTable, DoubleMapPanics)
{
    PageTable pt;
    pt.mapRange(1, 1, Tier::Fast);
    EXPECT_THROW(pt.mapRange(1, 1, Tier::Fast), std::logic_error);
    EXPECT_THROW(pt.mapRange(0, 3, Tier::Fast), std::logic_error);
}

TEST(PageTable, UnmapUnknownPanics)
{
    PageTable pt;
    EXPECT_THROW(pt.unmapRange(9, 1), std::logic_error);
    EXPECT_THROW(pt.runState(9, 1), std::logic_error);
}

TEST(PageTable, MigrationLifecycle)
{
    PageTable pt;
    pt.mapRange(3, 1, Tier::Slow);
    pt.beginMigrationRun(3, 1, Tier::Slow, Tier::Fast);
    EXPECT_TRUE(pt.runState(3, 1).in_flight);
    EXPECT_EQ(pt.runState(3, 1).tier, Tier::Slow);
    EXPECT_EQ(pt.numInFlight(), 1u);

    pt.commitMigrationRun(3, 1, Tier::Slow, Tier::Fast);
    EXPECT_FALSE(pt.runState(3, 1).in_flight);
    EXPECT_EQ(pt.runState(3, 1).tier, Tier::Fast);
    EXPECT_EQ(pt.numInFlight(), 0u);
}

TEST(PageTable, CommitRequiresPagesInFlightOutOfSource)
{
    PageTable pt;
    pt.mapRange(0, 4, Tier::Slow);
    // Not migrating at all.
    EXPECT_THROW(pt.commitMigrationRun(0, 1, Tier::Slow, Tier::Fast),
                 std::logic_error);
    pt.beginMigrationRun(0, 3, Tier::Slow, Tier::Fast);
    // Wrong source tier.
    EXPECT_THROW(pt.commitMigrationRun(0, 3, Tier::Fast, Tier::Slow),
                 std::logic_error);
    // A run that reaches past the migrating pages.
    EXPECT_THROW(pt.commitMigrationRun(1, 3, Tier::Slow, Tier::Fast),
                 std::logic_error);
    // Freed pages cannot be committed.
    pt.unmapRange(2, 2);
    EXPECT_THROW(pt.commitMigrationRun(2, 1, Tier::Slow, Tier::Fast),
                 std::logic_error);
    // The failed commits changed nothing.
    EXPECT_EQ(pt.numInFlight(), 2u);
    PageRunState rs = pt.runState(0, 2);
    EXPECT_TRUE(rs.in_flight);
    EXPECT_EQ(rs.tier, Tier::Slow);
    EXPECT_EQ(rs.count, 2u);
    pt.commitMigrationRun(0, 2, Tier::Slow, Tier::Fast);
    EXPECT_EQ(pt.runState(0, 2).tier, Tier::Fast);
    EXPECT_EQ(pt.numInFlight(), 0u);
}

TEST(PageTable, DoubleMigrationPanics)
{
    PageTable pt;
    pt.mapRange(1, 1, Tier::Slow);
    pt.beginMigrationRun(1, 1, Tier::Slow, Tier::Fast);
    EXPECT_THROW(pt.beginMigrationRun(1, 1, Tier::Slow, Tier::Fast),
                 std::logic_error);
}

TEST(PageTable, SameTierMigrationPanics)
{
    PageTable pt;
    pt.mapRange(1, 1, Tier::Slow);
    EXPECT_THROW(pt.beginMigrationRun(1, 1, Tier::Slow, Tier::Slow),
                 std::logic_error);
}

TEST(PageTable, FailedBeginLeavesThePieceIdle)
{
    // The last page is already moving: the run is refused before any
    // page of it is flagged.
    PageTable pt;
    pt.mapRange(0, 8, Tier::Slow);
    pt.beginMigrationRun(7, 1, Tier::Slow, Tier::Fast);
    EXPECT_THROW(pt.beginMigrationRun(0, 8, Tier::Slow, Tier::Fast),
                 std::logic_error);
    EXPECT_THROW(pt.beginMigrationRun(5, 4, Tier::Slow, Tier::Fast),
                 std::logic_error);
    EXPECT_EQ(pt.numInFlight(), 1u);
    EXPECT_FALSE(pt.anyInFlight(0, 7));
}

TEST(PageTable, RangeMapUnmap)
{
    PageTable pt;
    pt.mapRange(100, 50, Tier::Fast);
    EXPECT_EQ(pt.numMapped(), 50u);
    for (PageId p = 100; p < 150; ++p) {
        ASSERT_TRUE(pt.isMapped(p));
        EXPECT_EQ(pt.runState(p, 1).tier, Tier::Fast);
    }
    EXPECT_FALSE(pt.isMapped(99));
    EXPECT_FALSE(pt.isMapped(150));
    pt.unmapRange(100, 50);
    EXPECT_EQ(pt.numMapped(), 0u);
    EXPECT_FALSE(pt.isMapped(125));
}

TEST(PageTable, UnmapRangeReportsPagesPerSourceTier)
{
    PageTable pt;
    pt.mapRange(0, 5, Tier::Fast);
    pt.mapRange(5, 3, makeTier(2));
    pt.mapRange(8, 4, Tier::Slow);
    // In-flight pages count at the tier they are leaving.
    pt.beginMigrationRun(9, 2, Tier::Slow, Tier::Fast);
    TierPages freed = pt.unmapRange(2, 9);
    EXPECT_EQ(freed[0], 3u);
    EXPECT_EQ(freed[1], 3u);
    EXPECT_EQ(freed[2], 3u);
    for (unsigned t = 3; t < kMaxTiers; ++t)
        EXPECT_EQ(freed[t], 0u);
    EXPECT_EQ(pt.numMapped(), 3u);
    EXPECT_EQ(pt.numInFlight(), 0u);
}

TEST(PageTable, RunStateFindsUniformPrefix)
{
    PageTable pt;
    pt.mapRange(0, 10, Tier::Slow);
    pt.mapRange(10, 5, Tier::Fast);
    pt.mapRange(15, 5, Tier::Slow);

    PageRunState rs = pt.runState(0, 20);
    EXPECT_EQ(rs.tier, Tier::Slow);
    EXPECT_FALSE(rs.in_flight);
    EXPECT_EQ(rs.count, 10u);

    rs = pt.runState(10, 10);
    EXPECT_EQ(rs.tier, Tier::Fast);
    EXPECT_EQ(rs.count, 5u);

    // An in-flight page splits the run even within one tier.
    pt.beginMigrationRun(17, 1, Tier::Slow, Tier::Fast);
    rs = pt.runState(15, 5);
    EXPECT_EQ(rs.tier, Tier::Slow);
    EXPECT_FALSE(rs.in_flight);
    EXPECT_EQ(rs.count, 2u);
    rs = pt.runState(17, 3);
    EXPECT_TRUE(rs.in_flight);
    EXPECT_EQ(rs.count, 1u);
}

TEST(PageTable, AnyInFlight)
{
    PageTable pt;
    pt.mapRange(0, 8, Tier::Slow);
    EXPECT_FALSE(pt.anyInFlight(0, 8));
    pt.beginMigrationRun(6, 1, Tier::Slow, Tier::Fast);
    EXPECT_TRUE(pt.anyInFlight(0, 8));
    EXPECT_FALSE(pt.anyInFlight(0, 6));
    EXPECT_TRUE(pt.anyInFlight(6, 1));
}

TEST(PageTable, SparseHighAddresses)
{
    // The co-allocation layout places regions at multiples of 2^44
    // bytes (2^32 pages); the table must handle those page numbers
    // without densifying the gaps.
    PageTable pt;
    const PageId bases[] = { 0, 1ull << 32, 2ull << 32, 3ull << 32 };
    for (PageId base : bases)
        pt.mapRange(base, 16, Tier::Slow);
    EXPECT_EQ(pt.numMapped(), 64u);
    for (PageId base : bases) {
        EXPECT_TRUE(pt.isMapped(base + 15));
        EXPECT_FALSE(pt.isMapped(base + 16));
        PageRunState rs = pt.runState(base, 16);
        EXPECT_EQ(rs.count, 16u);
    }
    for (PageId base : bases)
        pt.unmapRange(base, 16);
    EXPECT_EQ(pt.numMapped(), 0u);
}

TEST(PageTable, RangeAcrossChunkBoundary)
{
    // The table stores pages in 2^16-page chunks; a range
    // spanning the seam must behave exactly like an interior one.
    PageTable pt;
    const PageId seam = 1ull << 16;
    pt.mapRange(seam - 8, 16, Tier::Fast);
    EXPECT_EQ(pt.numMapped(), 16u);
    PageRunState rs = pt.runState(seam - 8, 16);
    EXPECT_EQ(rs.count, 16u);
    EXPECT_EQ(rs.tier, Tier::Fast);
    pt.beginMigrationRun(seam, 1, Tier::Fast, Tier::Slow);
    EXPECT_TRUE(pt.anyInFlight(seam - 8, 16));
    rs = pt.runState(seam - 8, 16);
    EXPECT_EQ(rs.count, 8u);
    // Runs that straddle the seam begin and land as one.
    pt.beginMigrationRun(seam - 4, 4, Tier::Fast, Tier::Slow);
    pt.commitMigrationRun(seam - 4, 5, Tier::Fast, Tier::Slow);
    rs = pt.runState(seam - 8, 16);
    EXPECT_EQ(rs.count, 4u);
    rs = pt.runState(seam - 4, 12);
    EXPECT_EQ(rs.tier, Tier::Slow);
    EXPECT_EQ(rs.count, 5u);
    EXPECT_EQ(pt.numInFlight(), 0u);
    pt.unmapRange(seam - 8, 16);
    EXPECT_EQ(pt.numMapped(), 0u);
}

TEST(PageTable, ClearForgetsEverything)
{
    PageTable pt;
    pt.mapRange(40, 10, Tier::Fast);
    pt.beginMigrationRun(44, 1, Tier::Fast, Tier::Slow);
    pt.clear();
    EXPECT_EQ(pt.numMapped(), 0u);
    EXPECT_EQ(pt.numInFlight(), 0u);
    for (PageId p = 40; p < 50; ++p)
        EXPECT_FALSE(pt.isMapped(p));
    // The table is fully reusable after clear (epoch bump must not
    // leave stale entries visible).
    pt.mapRange(44, 1, Tier::Slow);
    EXPECT_EQ(pt.runState(44, 1).tier, Tier::Slow);
    EXPECT_FALSE(pt.runState(44, 1).in_flight);
    EXPECT_EQ(pt.numMapped(), 1u);
}

TEST(PageTable, RepeatedClearCycles)
{
    // Exercises per-chunk epoch reuse: many clear cycles over the same
    // pages must never resurrect old entries.
    PageTable pt;
    for (int cycle = 0; cycle < 100; ++cycle) {
        pt.mapRange(0, 4, Tier::Fast);
        pt.mapRange(1ull << 20, 1, Tier::Slow);
        EXPECT_EQ(pt.numMapped(), 5u);
        pt.clear();
        EXPECT_EQ(pt.numMapped(), 0u);
        EXPECT_FALSE(pt.isMapped(0));
        EXPECT_FALSE(pt.isMapped(1ull << 20));
    }
}

/** @p op must panic with a message naming page @p bad. */
template <typename Op>
void
expectRefusalNames(PageId bad, Op &&op)
{
    SCOPED_TRACE(::testing::Message() << "bad page " << bad);
    try {
        op();
        ADD_FAILURE() << "not refused";
    } catch (const std::logic_error &e) {
        const std::string msg = e.what();
        const std::string want = "page " + std::to_string(bad);
        const std::size_t at = msg.find(want);
        ASSERT_NE(at, std::string::npos) << msg;
        const std::size_t next = at + want.size();
        EXPECT_TRUE(next == msg.size() ||
                    !std::isdigit(static_cast<unsigned char>(msg[next])))
            << msg;
    }
}

/**
 * One bad page at every position of a 29-page range (three full
 * eight-byte words plus a ragged tail, so each word offset 0-7 is hit)
 * must be the page each range op names when it refuses.  @p first
 * sets where the range sits relative to a chunk seam.
 */
void
expectEveryBadPageNamed(PageId first)
{
    constexpr std::uint64_t n = 29;
    for (PageId bad = first; bad < first + n; ++bad) {
        // mapRange over one page that is already mapped.
        expectRefusalNames(bad, [&] {
            PageTable pt;
            pt.mapRange(bad, 1, Tier::Fast);
            pt.mapRange(first, n, Tier::Slow);
        });
        // unmapRange over one page that is not mapped.
        expectRefusalNames(bad, [&] {
            PageTable pt;
            pt.mapRange(first, bad - first, Tier::Slow);
            pt.mapRange(bad + 1, first + n - bad - 1, Tier::Slow);
            pt.unmapRange(first, n);
        });
        // beginMigrationRun over one moving page, and over one page
        // resident outside the run's source tier.
        expectRefusalNames(bad, [&] {
            PageTable pt;
            pt.mapRange(first, n, Tier::Slow);
            pt.beginMigrationRun(bad, 1, Tier::Slow, Tier::Fast);
            pt.beginMigrationRun(first, n, Tier::Slow, Tier::Fast);
        });
        expectRefusalNames(bad, [&] {
            PageTable pt;
            pt.mapRange(first, bad - first, Tier::Slow);
            pt.mapRange(bad, 1, makeTier(2));
            pt.mapRange(bad + 1, first + n - bad - 1, Tier::Slow);
            pt.beginMigrationRun(first, n, Tier::Slow, Tier::Fast);
        });
        // commitMigrationRun over one page that is not in flight.
        expectRefusalNames(bad, [&] {
            PageTable pt;
            pt.mapRange(first, n, Tier::Slow);
            if (bad > first)
                pt.beginMigrationRun(first, bad - first, Tier::Slow,
                                     Tier::Fast);
            if (bad + 1 < first + n)
                pt.beginMigrationRun(bad + 1, first + n - bad - 1,
                                     Tier::Slow, Tier::Fast);
            pt.commitMigrationRun(first, n, Tier::Slow, Tier::Fast);
        });
    }
}

TEST(PageTable, RefusalNamesTheBadPageAtEveryWordOffset)
{
    expectEveryBadPageNamed(1000);
}

TEST(PageTable, RefusalNamesTheBadPageAcrossAChunkSeam)
{
    // 13 pages before the seam (a word and a 5-page tail), 16 after.
    expectEveryBadPageNamed((1ull << 16) - 13);
}

} // namespace
} // namespace sentinel::mem
