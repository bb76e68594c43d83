/**
 * @file
 * Test-only reference model of mem::PageTable.
 *
 * One std::map entry per mapped page, every operation a plain per-page
 * loop: slow, but simple enough to be right by inspection.  The
 * differential suite (tests/mem/test_page_table_diff.cc) drives it and
 * the production table with the same op sequence and compares every
 * observable after every op.  Preconditions are asserted the same way
 * (SENTINEL_ASSERT), and sequence numbers are allocated in the same
 * order, so beginMigration*() return values must match exactly.
 */

#ifndef SENTINEL_TESTS_SUPPORT_REF_PAGE_TABLE_HH
#define SENTINEL_TESTS_SUPPORT_REF_PAGE_TABLE_HH

#include <cstdint>
#include <map>

#include "common/logging.hh"
#include "mem/page_table.hh"

namespace sentinel::testing {

class RefPageTable
{
  public:
    using PageId = mem::PageId;
    using Tier = mem::Tier;

    void
    map(PageId page, Tier tier)
    {
        mem::PageEntry e;
        e.tier = tier;
        bool inserted = entries_.emplace(page, e).second;
        SENTINEL_ASSERT(inserted, "page %llu already mapped",
                        static_cast<unsigned long long>(page));
    }

    void
    mapRange(PageId first, std::uint64_t count, Tier tier)
    {
        for (std::uint64_t i = 0; i < count; ++i)
            map(first + i, tier);
    }

    void
    unmap(PageId page)
    {
        auto it = entries_.find(page);
        SENTINEL_ASSERT(it != entries_.end(),
                        "unmap of unmapped page %llu",
                        static_cast<unsigned long long>(page));
        if (it->second.in_flight)
            --num_inflight_;
        entries_.erase(it);
    }

    void
    unmapRange(PageId first, std::uint64_t count)
    {
        for (std::uint64_t i = 0; i < count; ++i)
            unmap(first + i);
    }

    bool isMapped(PageId page) const { return entries_.count(page) == 1; }

    mem::PageEntry
    entry(PageId page) const
    {
        auto it = entries_.find(page);
        SENTINEL_ASSERT(it != entries_.end(),
                        "entry() of unmapped page %llu",
                        static_cast<unsigned long long>(page));
        return it->second;
    }

    mem::PageRunState
    runState(PageId first, std::uint64_t count) const
    {
        SENTINEL_ASSERT(count > 0, "runState() of empty range");
        mem::PageEntry e0 = entry(first);
        mem::PageRunState rs{ e0.tier, e0.in_flight, 1 };
        while (rs.count < count) {
            mem::PageEntry e = entry(first + rs.count);
            if (e.tier != rs.tier || e.in_flight != rs.in_flight)
                break;
            ++rs.count;
        }
        return rs;
    }

    bool
    anyInFlight(PageId first, std::uint64_t count) const
    {
        for (std::uint64_t i = 0; i < count; ++i)
            if (entry(first + i).in_flight)
                return true;
        return false;
    }

    std::uint64_t
    beginMigration(PageId page, Tier dest, Tick arrival)
    {
        auto it = entries_.find(page);
        SENTINEL_ASSERT(it != entries_.end(),
                        "access to unmapped page %llu",
                        static_cast<unsigned long long>(page));
        mem::PageEntry &e = it->second;
        SENTINEL_ASSERT(!e.in_flight, "page %llu is already migrating",
                        static_cast<unsigned long long>(page));
        SENTINEL_ASSERT(e.tier != dest, "migration to the same tier");
        e.in_flight = true;
        e.dest = dest;
        e.arrival = arrival;
        e.seq = next_seq_++;
        ++num_inflight_;
        return e.seq;
    }

    bool
    commitMigration(PageId page, std::uint64_t seq)
    {
        auto it = entries_.find(page);
        if (it == entries_.end())
            return false; // freed while in flight
        mem::PageEntry &e = it->second;
        if (!e.in_flight || e.seq != seq)
            return false; // cancelled or superseded
        e.tier = e.dest;
        e.in_flight = false;
        --num_inflight_;
        return true;
    }

    std::uint64_t
    beginMigrationRun(PageId first, std::uint64_t count, Tier dest,
                      const sim::ArrivalCurve &arrivals)
    {
        SENTINEL_ASSERT(count > 0, "empty migration run");
        std::uint64_t seq0 = next_seq_;
        for (std::uint64_t i = 0; i < count; ++i)
            beginMigration(first + i, dest, arrivals.at(i));
        return seq0;
    }

    std::uint64_t
    commitMigrationRun(PageId first, std::uint64_t count,
                       std::uint64_t seq0)
    {
        std::uint64_t done = 0;
        for (std::uint64_t k = 0; k < count; ++k)
            done += commitMigration(first + k, seq0 + k) ? 1 : 0;
        return done;
    }

    void
    cancelMigration(PageId page)
    {
        auto it = entries_.find(page);
        SENTINEL_ASSERT(it != entries_.end(),
                        "access to unmapped page %llu",
                        static_cast<unsigned long long>(page));
        SENTINEL_ASSERT(it->second.in_flight,
                        "cancel of non-migrating page");
        it->second.in_flight = false;
        --num_inflight_;
    }

    std::size_t numMapped() const { return entries_.size(); }

    std::size_t numInFlight() const { return num_inflight_; }

    /** Forget every page; sequence numbers keep counting, exactly as
     *  in the production table, so pre-clear commits stay stale. */
    void
    clear()
    {
        entries_.clear();
        num_inflight_ = 0;
    }

  private:
    std::map<PageId, mem::PageEntry> entries_;
    std::size_t num_inflight_ = 0;
    std::uint64_t next_seq_ = 1;
};

} // namespace sentinel::testing

#endif // SENTINEL_TESTS_SUPPORT_REF_PAGE_TABLE_HH
