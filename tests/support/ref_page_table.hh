/**
 * @file
 * Test-only reference model of mem::PageTable.
 *
 * One std::map entry (tier, in flight) per mapped page, every operation
 * a plain per-page loop: slow, but simple enough to be right by
 * inspection.  The differential suite (tests/mem/test_page_table_diff.cc)
 * drives it and the production table with the same op sequence and
 * compares every observable after every op.  Preconditions are
 * asserted the same way (SENTINEL_ASSERT).
 */

#ifndef SENTINEL_TESTS_SUPPORT_REF_PAGE_TABLE_HH
#define SENTINEL_TESTS_SUPPORT_REF_PAGE_TABLE_HH

#include <cstdint>
#include <map>
#include <utility>

#include "common/logging.hh"
#include "mem/page_table.hh"

namespace sentinel::testing {

class RefPageTable
{
  public:
    using PageId = mem::PageId;
    using Tier = mem::Tier;

    void
    mapRange(PageId first, std::uint64_t count, Tier tier)
    {
        for (std::uint64_t i = 0; i < count; ++i) {
            bool inserted =
                entries_.emplace(first + i, Entry{ tier, false }).second;
            SENTINEL_ASSERT(inserted, "page %llu already mapped",
                            static_cast<unsigned long long>(first + i));
        }
    }

    mem::TierPages
    unmapRange(PageId first, std::uint64_t count)
    {
        mem::TierPages freed{};
        for (std::uint64_t i = 0; i < count; ++i) {
            const Entry e = at(first + i);
            ++freed[mem::tierIndex(e.tier)];
            if (e.in_flight)
                --num_inflight_;
            entries_.erase(first + i);
        }
        return freed;
    }

    bool isMapped(PageId page) const { return entries_.count(page) == 1; }

    mem::PageRunState
    runState(PageId first, std::uint64_t count) const
    {
        SENTINEL_ASSERT(count > 0, "runState() of empty range");
        const Entry e0 = at(first);
        mem::PageRunState rs{ e0.tier, e0.in_flight, 1 };
        while (rs.count < count) {
            const Entry e = at(first + rs.count);
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
            if (at(first + i).in_flight)
                return true;
        return false;
    }

    void
    beginMigrationRun(PageId first, std::uint64_t count, Tier src,
                      Tier dest)
    {
        SENTINEL_ASSERT(count > 0, "empty migration run");
        SENTINEL_ASSERT(src != dest, "migration to the same tier");
        for (std::uint64_t i = 0; i < count; ++i) {
            Entry &e = at(first + i);
            SENTINEL_ASSERT(!e.in_flight, "page %llu is already migrating",
                            static_cast<unsigned long long>(first + i));
            SENTINEL_ASSERT(e.tier == src, "page %llu is not in its source",
                            static_cast<unsigned long long>(first + i));
            e.in_flight = true;
            ++num_inflight_;
        }
    }

    void
    commitMigrationRun(PageId first, std::uint64_t count, Tier src,
                       Tier dest)
    {
        for (std::uint64_t i = 0; i < count; ++i) {
            Entry &e = at(first + i);
            SENTINEL_ASSERT(e.in_flight && e.tier == src,
                            "commit of page %llu, which is not in flight "
                            "out of its source",
                            static_cast<unsigned long long>(first + i));
            e.tier = dest;
            e.in_flight = false;
            --num_inflight_;
        }
    }

    std::size_t numMapped() const { return entries_.size(); }

    std::size_t numInFlight() const { return num_inflight_; }

    void
    clear()
    {
        entries_.clear();
        num_inflight_ = 0;
    }

  private:
    struct Entry {
        Tier tier;
        bool in_flight;
    };

    const Entry &
    at(PageId page) const
    {
        auto it = entries_.find(page);
        SENTINEL_ASSERT(it != entries_.end(), "access to unmapped page %llu",
                        static_cast<unsigned long long>(page));
        return it->second;
    }

    Entry &
    at(PageId page)
    {
        return const_cast<Entry &>(std::as_const(*this).at(page));
    }

    std::map<PageId, Entry> entries_;
    std::size_t num_inflight_ = 0;
};

} // namespace sentinel::testing

#endif // SENTINEL_TESTS_SUPPORT_REF_PAGE_TABLE_HH
