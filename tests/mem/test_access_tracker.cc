#include <gtest/gtest.h>

#include "mem/access_tracker.hh"

namespace sentinel::mem {
namespace {

TEST(AccessTracker, CountsOnlyTrackedPages)
{
    AccessTracker t(/*fault_cost=*/1000);
    t.trackRange(1, 1);

    EXPECT_EQ(t.onAccess(1, 1, false, 1), 1000);
    EXPECT_EQ(t.onAccess(2, 1, false, 1), 0); // untracked: no fault, no count
    EXPECT_EQ(t.counts(1).reads, 1u);
    EXPECT_EQ(t.counts(2).total(), 0u);
}

TEST(AccessTracker, ReadsAndWritesSeparate)
{
    AccessTracker t;
    t.trackRange(7, 1);
    t.onAccess(7, 1, false, 3);
    t.onAccess(7, 1, true, 2);
    EXPECT_EQ(t.counts(7).reads, 3u);
    EXPECT_EQ(t.counts(7).writes, 2u);
    EXPECT_EQ(t.counts(7).total(), 5u);
}

TEST(AccessTracker, FaultCostScalesWithCount)
{
    AccessTracker t(500);
    t.trackRange(1, 1);
    EXPECT_EQ(t.onAccess(1, 1, false, 10), 5000);
    EXPECT_EQ(t.totalFaults(), 10u);
}

TEST(AccessTracker, RunCountsEachTrackedPage)
{
    // A run straddling untracked pages faults only on the tracked
    // ones, exactly as one call per page would.
    AccessTracker run(100), pages(100);
    for (AccessTracker *t : { &run, &pages }) {
        t->trackRange(10, 3);
        t->trackRange(15, 1);
    }
    EXPECT_EQ(run.onAccess(9, 8, true, 2), 4 * 2 * 100);
    Tick per_page = 0;
    for (PageId p = 9; p < 17; ++p)
        per_page += pages.onAccess(p, 1, true, 2);
    EXPECT_EQ(per_page, 4 * 2 * 100);
    EXPECT_EQ(run.totalFaults(), 8u);
    EXPECT_EQ(run.totalFaults(), pages.totalFaults());
    for (PageId p = 9; p < 17; ++p)
        EXPECT_EQ(run.counts(p).writes, pages.counts(p).writes) << p;
    EXPECT_EQ(run.counts(12).writes, 2u);
    EXPECT_EQ(run.counts(13).total(), 0u);
}

TEST(AccessTracker, UntrackStopsCountingButKeepsCounts)
{
    AccessTracker t;
    t.trackRange(4, 1);
    t.onAccess(4, 1, false, 1);
    t.untrackRange(4, 1);
    EXPECT_EQ(t.onAccess(4, 1, false, 1), 0);
    EXPECT_EQ(t.counts(4).reads, 1u); // profile data preserved
}

TEST(AccessTracker, ZeroCountIsFree)
{
    AccessTracker t;
    t.trackRange(1, 1);
    EXPECT_EQ(t.onAccess(1, 1, true, 0), 0);
    EXPECT_EQ(t.counts(1).total(), 0u);
}

TEST(AccessTracker, ResetClearsEverything)
{
    AccessTracker t;
    t.trackRange(1, 1);
    t.onAccess(1, 1, false, 1);
    t.reset();
    EXPECT_FALSE(t.isTracked(1));
    EXPECT_EQ(t.counts(1).total(), 0u);
    EXPECT_EQ(t.totalFaults(), 0u);
    EXPECT_TRUE(t.allCounts().empty());
}

} // namespace
} // namespace sentinel::mem
