
#include <gtest/gtest.h>

#include "mem/hm.hh"

namespace sentinel::mem {
namespace {

HeterogeneousMemory
makeHm(std::uint64_t fast_pages = 4, std::uint64_t slow_pages = 1024)
{
    TierParams fast{ "dram", fast_pages * kPageSize, 10e9, 10e9, 100, 100 };
    TierParams slow{ "pmm", slow_pages * kPageSize, 2e9, 1e9, 300, 300 };
    // 1 GB/s promote, 1 GB/s demote, no startup: one page = 4096 ns.
    MigrationParams mig{ 1e9, 1e9, 0 };
    return HeterogeneousMemory({ fast, slow }, { mig });
}

TEST(Hm, MapPreferredTier)
{
    auto hm = makeHm();
    hm.mapRange(1, 1, Tier::Fast);
    EXPECT_EQ(hm.residentTier(1, 0), Tier::Fast);
    EXPECT_EQ(hm.tier(Tier::Fast).used(), kPageSize);
}

TEST(Hm, MapFallsBackWhenFull)
{
    auto hm = makeHm(1);
    hm.mapRange(0, 1, Tier::Fast);
    hm.mapRange(1, 1, Tier::Fast);
    EXPECT_EQ(hm.residentTier(0, 0), Tier::Fast);
    EXPECT_EQ(hm.residentTier(1, 0), Tier::Slow);
}

TEST(Hm, MigrationTimingAndResidency)
{
    auto hm = makeHm();
    hm.mapRange(5, 1, Tier::Slow);

    Tick arrival = hm.migratePage(5, Tier::Fast, 0);
    EXPECT_EQ(arrival, 4096); // 4 KiB at 1 GB/s

    // While in flight the page is served from its source.
    EXPECT_EQ(hm.residentTier(5, arrival - 1), Tier::Slow);
    EXPECT_TRUE(hm.inFlight(5, arrival - 1));
    EXPECT_EQ(hm.arrivalTime(5), arrival);

    // After arrival it lives in fast memory.
    EXPECT_EQ(hm.residentTier(5, arrival), Tier::Fast);
    EXPECT_FALSE(hm.inFlight(5, arrival));
}

TEST(Hm, MigrationReservesDestinationUpFront)
{
    auto hm = makeHm(1);
    hm.mapRange(0, 1, Tier::Slow);
    hm.mapRange(1, 1, Tier::Slow);

    EXPECT_GE(hm.migratePage(0, Tier::Fast, 0), 0);
    // Fast tier is fully reserved by the in-flight page.
    EXPECT_EQ(hm.migratePage(1, Tier::Fast, 0), -1);
}

TEST(Hm, SourceReleasedOnlyAtCompletion)
{
    auto hm = makeHm();
    hm.mapRange(9, 1, Tier::Slow);
    std::uint64_t slow_before = hm.tier(Tier::Slow).used();

    Tick arrival = hm.migratePage(9, Tier::Fast, 0);
    EXPECT_EQ(hm.tier(Tier::Slow).used(), slow_before);
    hm.commitUpTo(arrival);
    EXPECT_EQ(hm.tier(Tier::Slow).used(), slow_before - kPageSize);
}

TEST(Hm, RedundantMigrationRejected)
{
    auto hm = makeHm();
    hm.mapRange(2, 1, Tier::Fast);
    EXPECT_EQ(hm.migratePage(2, Tier::Fast, 0), -1);

    hm.mapRange(3, 1, Tier::Slow);
    EXPECT_GE(hm.migratePage(3, Tier::Fast, 0), 0);
    // Already in flight.
    EXPECT_EQ(hm.migratePage(3, Tier::Fast, 0), -1);
}

TEST(Hm, UnmapInFlightReleasesBothReservations)
{
    auto hm = makeHm(2);
    hm.mapRange(1, 1, Tier::Slow);
    hm.migratePage(1, Tier::Fast, 0);
    std::uint64_t fast_used = hm.tier(Tier::Fast).used();
    EXPECT_EQ(fast_used, kPageSize);

    hm.unmapRange(1, 1, 0); // freed before arrival
    EXPECT_EQ(hm.tier(Tier::Fast).used(), 0u);
    EXPECT_EQ(hm.tier(Tier::Slow).used(), 0u);
    // The late commit must not corrupt capacity accounting.
    hm.commitUpTo(1'000'000);
    EXPECT_EQ(hm.tier(Tier::Fast).used(), 0u);
}

TEST(Hm, BatchMigrationSerializesOnChannel)
{
    auto hm = makeHm(8);
    const PageRun pages[] = { { 10, 3 } };
    hm.mapRange(10, 3, Tier::Slow);

    EXPECT_EQ(hm.migratePages(pages, Tier::Fast, 0), 3u);
    // Three pages over one serialized 1 GB/s channel: the batch's last
    // page arrives after all three transferred back-to-back.
    EXPECT_EQ(hm.arrivalTime(12), 3 * 4096);
    EXPECT_EQ(hm.arrivalTime(10), 1 * 4096);
    EXPECT_EQ(hm.stats().promoted_pages, 3u);
    EXPECT_EQ(hm.stats().promoted_bytes, 3 * kPageSize);
}

TEST(Hm, BatchMigrationChargesOneStartup)
{
    TierParams fast{ "dram", 8 * kPageSize, 10e9, 10e9, 100, 100 };
    TierParams slow{ "pmm", 1024 * kPageSize, 2e9, 1e9, 300, 300 };
    MigrationParams mig{ 1e9, 1e9, 1000 }; // 1 us startup
    HeterogeneousMemory hm({ fast, slow }, { mig });
    const PageRun pages[] = { { 1, 4 } };
    hm.mapRange(1, 4, Tier::Slow);

    hm.migratePages(pages, Tier::Fast, 0);
    // One setup cost for the whole batch, then pages stream.
    EXPECT_EQ(hm.arrivalTime(4), 1000 + 4 * 4096);
}

TEST(Hm, BatchMigrationStopsWhenDestinationFull)
{
    auto hm = makeHm(2);
    const PageRun pages[] = { { 1, 4 } };
    hm.mapRange(1, 4, Tier::Slow);

    EXPECT_EQ(hm.migratePages(pages, Tier::Fast, 0), 2u);
    EXPECT_EQ(hm.stats().promoted_pages, 2u);
}

TEST(Hm, BatchMigrationSkipsIneligiblePages)
{
    auto hm = makeHm(8);
    hm.mapRange(1, 1, Tier::Fast); // already there
    hm.mapRange(2, 1, Tier::Slow);
    hm.mapRange(3, 1, Tier::Slow);
    hm.migratePage(3, Tier::Fast, 0); // already in flight
    const PageRun pages[] = { { 1, 3 } };
    EXPECT_EQ(hm.migratePages(pages, Tier::Fast, 0), 1u);
}

TEST(Hm, PromoteAndDemoteUseSeparateChannels)
{
    auto hm = makeHm(8);
    hm.mapRange(1, 1, Tier::Slow);
    hm.mapRange(2, 1, Tier::Fast);

    Tick up = hm.migratePage(1, Tier::Fast, 0);
    Tick down = hm.migratePage(2, Tier::Slow, 0);
    // Channels run in parallel (the paper's two helper threads), so the
    // two single-page transfers finish at the same time.
    EXPECT_EQ(up, down);
    EXPECT_EQ(hm.stats().demoted_pages, 1u);
}

TEST(Hm, PeakUsageTracked)
{
    auto hm = makeHm(4);
    hm.mapRange(1, 1, Tier::Fast);
    hm.mapRange(2, 1, Tier::Fast);
    hm.unmapRange(1, 1, 0);
    EXPECT_EQ(hm.tier(Tier::Fast).peakUsed(), 2 * kPageSize);
}

TEST(Hm, MapRangeMatchesPerPagePlacement)
{
    // Bulk mapping must place pages exactly like a page-at-a-time loop:
    // a preferred-tier prefix while capacity lasts, then fallback.
    auto hm = makeHm(3);
    auto ref = makeHm(3);
    hm.mapRange(10, 5, Tier::Fast);
    for (PageId p = 10; p < 15; ++p)
        ref.mapRange(p, 1, Tier::Fast);
    for (PageId p = 10; p < 15; ++p)
        EXPECT_EQ(hm.residentTier(p, 0), ref.residentTier(p, 0));
    EXPECT_EQ(hm.tier(Tier::Fast).used(), ref.tier(Tier::Fast).used());
    EXPECT_EQ(hm.tier(Tier::Slow).used(), ref.tier(Tier::Slow).used());
}

TEST(Hm, MapRangeBothTiersFullIsFatal)
{
    auto hm = makeHm(1, 1);
    hm.mapRange(0, 2, Tier::Fast);
    EXPECT_THROW(hm.mapRange(2, 1, Tier::Fast), std::runtime_error);
}

TEST(Hm, UnmapRangeReleasesPerTier)
{
    auto hm = makeHm(2);
    hm.mapRange(0, 5, Tier::Fast); // 2 fast + 3 slow
    EXPECT_EQ(hm.tier(Tier::Fast).used(), 2 * kPageSize);
    EXPECT_EQ(hm.tier(Tier::Slow).used(), 3 * kPageSize);
    hm.unmapRange(0, 5, 0);
    EXPECT_EQ(hm.tier(Tier::Fast).used(), 0u);
    EXPECT_EQ(hm.tier(Tier::Slow).used(), 0u);
    EXPECT_FALSE(hm.isMapped(3));
}

TEST(Hm, UnmapRangeCancelsInFlight)
{
    auto hm = makeHm(4);
    hm.mapRange(0, 2, Tier::Slow);
    hm.migratePage(0, Tier::Fast, 0);
    hm.unmapRange(0, 2, 0); // before arrival
    EXPECT_EQ(hm.tier(Tier::Fast).used(), 0u);
    EXPECT_EQ(hm.tier(Tier::Slow).used(), 0u);
    hm.commitUpTo(1'000'000);
    EXPECT_EQ(hm.tier(Tier::Fast).used(), 0u);
}

TEST(Hm, FreeingMiddleOfInFlightRunKeepsHeadAndTailArrivals)
{
    auto hm = makeHm(8);
    hm.mapRange(0, 8, Tier::Slow);
    const PageRun pages[] = { { 0, 8 } };
    ASSERT_EQ(hm.migratePages(pages, Tier::Fast, 0), 8u);
    // Page k lands at (k + 1) * 4096.  Free pages 3 and 4 mid-flight.
    hm.unmapRange(3, 2, 0);
    EXPECT_EQ(hm.tier(Tier::Fast).used(), 6 * kPageSize);
    EXPECT_EQ(hm.tier(Tier::Slow).used(), 6 * kPageSize);
    EXPECT_EQ(hm.arrivalTime(2), 3 * 4096);
    EXPECT_EQ(hm.arrivalTime(5), 6 * 4096);
    EXPECT_EQ(hm.arrivalTime(0, 8), 8 * 4096);
    EXPECT_EQ(hm.arrivalTime(0, 5), 3 * 4096);

    // The head lands on time.
    EXPECT_TRUE(hm.inFlight(2, 3 * 4096 - 1));
    EXPECT_EQ(hm.residentTier(2, 3 * 4096), Tier::Fast);
    EXPECT_EQ(hm.tier(Tier::Slow).used(), 3 * kPageSize);
    // The freed pages' ticks pass without effect; the tail keeps its
    // own arrivals.
    EXPECT_TRUE(hm.inFlight(5, 6 * 4096 - 1));
    EXPECT_EQ(hm.tier(Tier::Slow).used(), 3 * kPageSize);
    EXPECT_EQ(hm.residentTier(5, 6 * 4096), Tier::Fast);
    EXPECT_TRUE(hm.inFlight(7, 8 * 4096 - 1));
    EXPECT_FALSE(hm.inFlight(7, 8 * 4096));
    EXPECT_EQ(hm.tier(Tier::Fast).used(), 6 * kPageSize);
    EXPECT_EQ(hm.tier(Tier::Slow).used(), 0u);
    EXPECT_EQ(hm.arrivalTime(0, 8), -1);
}

TEST(Hm, PageFreedInFlightAndMigratedAgainLandsAtItsNewArrival)
{
    // The old transfer's arrival must not land the new migration of
    // the same page early.
    auto hm = makeHm(8);
    hm.mapRange(0, 4, Tier::Slow);
    const PageRun pages[] = { { 0, 4 } };
    ASSERT_EQ(hm.migratePages(pages, Tier::Fast, 0), 4u);
    hm.unmapRange(1, 1, 0); // page 1 would have landed at 8192
    hm.mapRange(1, 1, Tier::Slow);
    // Queued behind the four-page batch on the same channel.
    Tick again = hm.migratePage(1, Tier::Fast, 0);
    EXPECT_EQ(again, 5 * 4096);

    EXPECT_TRUE(hm.inFlight(1, 2 * 4096));
    EXPECT_EQ(hm.residentTier(1, 2 * 4096), Tier::Slow);
    EXPECT_EQ(hm.arrivalTime(1), again);
    EXPECT_EQ(hm.tier(Tier::Fast).used(), 4 * kPageSize);
    EXPECT_EQ(hm.tier(Tier::Slow).used(), 3 * kPageSize);
    EXPECT_EQ(hm.residentTier(1, again), Tier::Fast);
    EXPECT_EQ(hm.tier(Tier::Fast).used(), 4 * kPageSize);
    EXPECT_EQ(hm.tier(Tier::Slow).used(), 0u);
}

TEST(Hm, PageFreedInFlightAndRemappedStaysPut)
{
    // A demotion freed mid-flight must never land on the page's next
    // mapping.
    auto hm = makeHm(4);
    hm.mapRange(5, 1, Tier::Fast);
    Tick arrival = hm.migratePage(5, Tier::Slow, 0);
    hm.unmapRange(5, 1, 0);
    hm.mapRange(5, 1, Tier::Fast);
    hm.commitUpTo(arrival + 1'000'000);
    EXPECT_EQ(hm.residentTier(5, arrival), Tier::Fast);
    EXPECT_FALSE(hm.inFlight(5, arrival));
    EXPECT_EQ(hm.tier(Tier::Fast).used(), kPageSize);
    EXPECT_EQ(hm.tier(Tier::Slow).used(), 0u);
}

TEST(Hm, UnmapCutsHeadsTailsAndWholeRuns)
{
    auto hm = makeHm(16);
    hm.mapRange(0, 12, Tier::Slow);
    const PageRun pages[] = { { 0, 4 }, { 5, 3 }, { 9, 3 } };
    ASSERT_EQ(hm.migratePages(pages, Tier::Fast, 0), 10u);
    // One range takes run 0's tail, all of run 1 and run 2's head.
    hm.unmapRange(2, 8, 0);
    EXPECT_EQ(hm.tier(Tier::Fast).used(), 4 * kPageSize);
    EXPECT_EQ(hm.tier(Tier::Slow).used(), 4 * kPageSize);
    EXPECT_EQ(hm.arrivalTime(1), 2 * 4096);
    EXPECT_EQ(hm.arrivalTime(10), 9 * 4096);
    EXPECT_EQ(hm.arrivalTime(0, 12), 10 * 4096);
    hm.commitUpTo(10 * 4096);
    for (PageId p : { 0, 1, 10, 11 })
        EXPECT_EQ(hm.residentTier(p, 10 * 4096), Tier::Fast) << p;
    EXPECT_EQ(hm.tier(Tier::Fast).used(), 4 * kPageSize);
    EXPECT_EQ(hm.tier(Tier::Slow).used(), 0u);
}

TEST(Hm, ArrivalTimeOfRangeIsLatestInFlightArrival)
{
    auto hm = makeHm(8);
    hm.mapRange(10, 3, Tier::Slow);
    const PageRun pages[] = { { 10, 3 } };
    hm.migratePages(pages, Tier::Fast, 0);
    EXPECT_EQ(hm.arrivalTime(10, 3), 3 * 4096);
    EXPECT_EQ(hm.arrivalTime(10, 2), 2 * 4096);
    EXPECT_EQ(hm.arrivalTime(0, 10), -1);
    EXPECT_EQ(hm.arrivalTime(0, 100), 3 * 4096);
    hm.commitUpTo(4096);
    EXPECT_EQ(hm.arrivalTime(10, 1), -1);
    EXPECT_EQ(hm.arrivalTime(10, 3), 3 * 4096);
    EXPECT_THROW(hm.arrivalTime(10), std::logic_error);
    EXPECT_THROW(hm.flightInfo(10), std::logic_error);
}

TEST(Hm, ResidentRangeSplitsOnTierAndFlight)
{
    auto hm = makeHm(8);
    hm.mapRange(0, 4, Tier::Slow);
    hm.mapRange(4, 4, Tier::Fast);

    PageRunState rs = hm.residentRange(0, 8, 0);
    EXPECT_EQ(rs.tier, Tier::Slow);
    EXPECT_EQ(rs.count, 4u);
    rs = hm.residentRange(4, 4, 0);
    EXPECT_EQ(rs.tier, Tier::Fast);
    EXPECT_EQ(rs.count, 4u);

    Tick arrival = hm.migratePage(2, Tier::Fast, 0);
    EXPECT_TRUE(hm.inFlightAny(0, 4, arrival - 1));
    EXPECT_FALSE(hm.inFlightAny(0, 2, arrival - 1));
    rs = hm.residentRange(0, 4, arrival - 1);
    EXPECT_EQ(rs.count, 2u);
    EXPECT_FALSE(rs.in_flight);

    // residentRange commits landed transfers, exactly like
    // residentTier does.
    rs = hm.residentRange(2, 2, arrival);
    EXPECT_EQ(rs.tier, Tier::Fast);
    EXPECT_FALSE(rs.in_flight);
    EXPECT_EQ(rs.count, 1u); // page 3 is still Slow
    EXPECT_FALSE(hm.inFlightAny(0, 4, arrival));
}

TEST(Hm, ResetRestoresPristineState)
{
    auto hm = makeHm();
    hm.mapRange(1, 1, Tier::Fast);
    hm.mapRange(2, 1, Tier::Slow);
    hm.migratePage(2, Tier::Fast, 0);
    hm.reset();
    EXPECT_EQ(hm.tier(Tier::Fast).used(), 0u);
    EXPECT_EQ(hm.tier(Tier::Slow).used(), 0u);
    EXPECT_FALSE(hm.isMapped(1));
    EXPECT_EQ(hm.stats().promoted_pages, 0u);
}

} // namespace
} // namespace sentinel::mem

namespace sentinel::mem {
namespace {

TEST(Hm, TeleportFlipsTierInstantlyWithoutTraffic)
{
    auto hm = makeHm(4);
    hm.mapRange(1, 1, Tier::Fast);
    EXPECT_TRUE(hm.teleportPage(1, Tier::Slow, 0));
    EXPECT_EQ(hm.residentTier(1, 0), Tier::Slow);
    // No channel traffic, no migration stats: a discard, not a copy.
    EXPECT_EQ(hm.stats().demoted_bytes, 0u);
    EXPECT_EQ(hm.demoteChannel().bytesTransferred(), 0u);
    // Capacity moved with the page.
    EXPECT_EQ(hm.tier(Tier::Fast).used(), 0u);
    EXPECT_EQ(hm.tier(Tier::Slow).used(), kPageSize);
}

TEST(Hm, TeleportToSameTierIsNoop)
{
    auto hm = makeHm(4);
    hm.mapRange(1, 1, Tier::Fast);
    EXPECT_TRUE(hm.teleportPage(1, Tier::Fast, 0));
    EXPECT_EQ(hm.tier(Tier::Fast).used(), kPageSize);
}

TEST(Hm, TeleportFailsWhenDestinationFull)
{
    auto hm = makeHm(1);
    hm.mapRange(1, 1, Tier::Fast);
    hm.mapRange(2, 1, Tier::Slow);
    EXPECT_FALSE(hm.teleportPage(2, Tier::Fast, 0));
    EXPECT_EQ(hm.residentTier(2, 0), Tier::Slow);
}

TEST(Hm, TeleportWaitsOutInFlightMigrations)
{
    auto hm = makeHm(4);
    hm.mapRange(1, 1, Tier::Slow);
    Tick arrival = hm.migratePage(1, Tier::Fast, 0);
    // Mid-flight: refuse (the transfer owns the page).
    EXPECT_FALSE(hm.teleportPage(1, Tier::Slow, arrival - 1));
    // After arrival: fine.
    EXPECT_TRUE(hm.teleportPage(1, Tier::Slow, arrival));
    EXPECT_EQ(hm.residentTier(1, arrival), Tier::Slow);
}

} // namespace
} // namespace sentinel::mem
