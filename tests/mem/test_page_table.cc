#include <gtest/gtest.h>

#include "mem/page_table.hh"

namespace sentinel::mem {
namespace {

TEST(PageTable, MapUnmap)
{
    PageTable pt;
    EXPECT_FALSE(pt.isMapped(7));
    pt.map(7, Tier::Slow);
    EXPECT_TRUE(pt.isMapped(7));
    EXPECT_EQ(pt.entry(7).tier, Tier::Slow);
    EXPECT_EQ(pt.numMapped(), 1u);
    pt.unmap(7);
    EXPECT_FALSE(pt.isMapped(7));
}

TEST(PageTable, DoubleMapPanics)
{
    PageTable pt;
    pt.map(1, Tier::Fast);
    EXPECT_THROW(pt.map(1, Tier::Fast), std::logic_error);
}

TEST(PageTable, UnmapUnknownPanics)
{
    PageTable pt;
    EXPECT_THROW(pt.unmap(9), std::logic_error);
    EXPECT_THROW(pt.entry(9), std::logic_error);
}

TEST(PageTable, MigrationLifecycle)
{
    PageTable pt;
    pt.map(3, Tier::Slow);
    std::uint64_t seq = pt.beginMigration(3, Tier::Fast, 1000);
    EXPECT_TRUE(pt.entry(3).in_flight);
    EXPECT_EQ(pt.entry(3).tier, Tier::Slow);
    EXPECT_EQ(pt.entry(3).arrival, 1000);

    EXPECT_TRUE(pt.commitMigration(3, seq));
    EXPECT_FALSE(pt.entry(3).in_flight);
    EXPECT_EQ(pt.entry(3).tier, Tier::Fast);
}

TEST(PageTable, StaleCommitIsIgnored)
{
    PageTable pt;
    pt.map(3, Tier::Slow);
    std::uint64_t seq1 = pt.beginMigration(3, Tier::Fast, 10);
    pt.cancelMigration(3);
    // The cancelled migration's commit must not flip the tier.
    EXPECT_FALSE(pt.commitMigration(3, seq1));
    EXPECT_EQ(pt.entry(3).tier, Tier::Slow);

    // A new migration gets a new seq; old seq still rejected.
    std::uint64_t seq2 = pt.beginMigration(3, Tier::Fast, 20);
    EXPECT_NE(seq1, seq2);
    EXPECT_FALSE(pt.commitMigration(3, seq1));
    EXPECT_TRUE(pt.commitMigration(3, seq2));
}

TEST(PageTable, CommitAfterUnmapIsIgnored)
{
    PageTable pt;
    pt.map(5, Tier::Fast);
    std::uint64_t seq = pt.beginMigration(5, Tier::Slow, 10);
    pt.unmap(5);
    EXPECT_FALSE(pt.commitMigration(5, seq));
}

TEST(PageTable, DoubleMigrationPanics)
{
    PageTable pt;
    pt.map(1, Tier::Slow);
    pt.beginMigration(1, Tier::Fast, 5);
    EXPECT_THROW(pt.beginMigration(1, Tier::Fast, 6), std::logic_error);
}

TEST(PageTable, SameTierMigrationPanics)
{
    PageTable pt;
    pt.map(1, Tier::Slow);
    EXPECT_THROW(pt.beginMigration(1, Tier::Slow, 5), std::logic_error);
}

TEST(PageTable, RangeMapUnmap)
{
    PageTable pt;
    pt.mapRange(100, 50, Tier::Fast);
    EXPECT_EQ(pt.numMapped(), 50u);
    for (PageId p = 100; p < 150; ++p) {
        ASSERT_TRUE(pt.isMapped(p));
        EXPECT_EQ(pt.entry(p).tier, Tier::Fast);
    }
    EXPECT_FALSE(pt.isMapped(99));
    EXPECT_FALSE(pt.isMapped(150));
    pt.unmapRange(100, 50);
    EXPECT_EQ(pt.numMapped(), 0u);
    EXPECT_FALSE(pt.isMapped(125));
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
    pt.beginMigration(17, Tier::Fast, 99);
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
    pt.beginMigration(6, Tier::Fast, 10);
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
    pt.beginMigration(seam, Tier::Slow, 5);
    EXPECT_TRUE(pt.anyInFlight(seam - 8, 16));
    rs = pt.runState(seam - 8, 16);
    EXPECT_EQ(rs.count, 8u);
    pt.cancelMigration(seam);
    pt.unmapRange(seam - 8, 16);
    EXPECT_EQ(pt.numMapped(), 0u);
}

TEST(PageTable, ClearForgetsEverything)
{
    PageTable pt;
    pt.mapRange(40, 10, Tier::Fast);
    pt.beginMigration(44, Tier::Slow, 7);
    pt.clear();
    EXPECT_EQ(pt.numMapped(), 0u);
    for (PageId p = 40; p < 50; ++p)
        EXPECT_FALSE(pt.isMapped(p));
    // The table is fully reusable after clear (epoch bump must not
    // leave stale entries visible).
    pt.map(44, Tier::Slow);
    EXPECT_EQ(pt.entry(44).tier, Tier::Slow);
    EXPECT_FALSE(pt.entry(44).in_flight);
    EXPECT_EQ(pt.numMapped(), 1u);
}

TEST(PageTable, RepeatedClearCycles)
{
    // Exercises per-chunk epoch reuse: many clear cycles over the same
    // pages must never resurrect old entries.
    PageTable pt;
    for (int cycle = 0; cycle < 100; ++cycle) {
        pt.mapRange(0, 4, Tier::Fast);
        pt.map(1ull << 20, Tier::Slow);
        EXPECT_EQ(pt.numMapped(), 5u);
        pt.clear();
        EXPECT_EQ(pt.numMapped(), 0u);
        EXPECT_FALSE(pt.isMapped(0));
        EXPECT_FALSE(pt.isMapped(1ull << 20));
    }
}

} // namespace
} // namespace sentinel::mem
