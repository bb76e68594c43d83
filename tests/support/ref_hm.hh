/**
 * @file
 * Test-only reference model of mem::HeterogeneousMemory's migration
 * engine.
 *
 * Everything page at a time: each page of a batch walks its legs with
 * one BandwidthChannel::submitWithStartup() per leg, and the pending
 * set is one entry per in-flight page (arrival, source, destination),
 * each committed once its own arrival has passed; freeing a page drops
 * its entry.  The page table is the map-backed RefPageTable.  Slow,
 * but simple enough to be right by inspection; tests/mem/test_hm_diff.cc
 * diffs the extent engine against it op by op.  Telemetry and
 * attribution are not modelled.
 */

#ifndef SENTINEL_TESTS_SUPPORT_REF_HM_HH
#define SENTINEL_TESTS_SUPPORT_REF_HM_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "common/logging.hh"
#include "mem/hm.hh"
#include "mem/tier.hh"
#include "sim/bandwidth_channel.hh"
#include "support/ref_page_table.hh"

namespace sentinel::testing {

class RefHm
{
  public:
    using PageId = mem::PageId;
    using PageRun = mem::PageRun;
    using Tier = mem::Tier;

    RefHm(const std::vector<mem::TierParams> &tiers,
          const std::vector<mem::MigrationParams> &links)
    {
        for (const mem::TierParams &tp : tiers)
            tiers_.emplace_back(tp);
        for (const mem::MigrationParams &mp : links)
            links_.push_back(Link{
                sim::BandwidthChannel("up", mp.promote_bw, mp.startup),
                sim::BandwidthChannel("down", mp.demote_bw, mp.startup),
                mp.promote_bw, mp.demote_bw });
    }

    unsigned numTiers() const { return static_cast<unsigned>(tiers_.size()); }
    unsigned numLinks() const { return static_cast<unsigned>(links_.size()); }

    const mem::MemoryTier &tier(Tier t) const { return tiers_[mem::tierIndex(t)]; }
    const mem::HmStats &stats() const { return stats_; }
    bool isMapped(PageId page) const { return table_.isMapped(page); }

    const sim::BandwidthChannel &
    linkChannel(unsigned link, bool toward_fast) const
    {
        return toward_fast ? links_[link].up : links_[link].down;
    }

    /** HeterogeneousMemory::mapRange() fallback order: preferred,
     *  slower tiers, faster ones. */
    void
    mapRange(PageId first, std::uint64_t count, Tier preferred)
    {
        const unsigned pref =
            std::min(mem::tierIndex(preferred), numTiers() - 1);
        for (std::uint64_t i = 0; i < count; ++i) {
            bool placed = tryMap(first + i, pref);
            for (unsigned t = pref + 1; !placed && t < numTiers(); ++t)
                placed = tryMap(first + i, t);
            for (unsigned t = pref; !placed && t-- > 0;)
                placed = tryMap(first + i, t);
            SENTINEL_ASSERT(placed, "reference chain out of memory");
        }
    }

    void
    unmapRange(PageId first, std::uint64_t count, Tick now)
    {
        commitUpTo(now);
        for (std::uint64_t i = 0; i < count; ++i) {
            auto it = pending_.find(first + i);
            if (it != pending_.end()) {
                release(it->second.dst);
                pending_.erase(it);
            }
        }
        const mem::TierPages freed = table_.unmapRange(first, count);
        for (unsigned t = 0; t < numTiers(); ++t)
            tiers_[t].release(freed[t] * mem::kPageSize);
    }

    mem::PageRunState
    residentRange(PageId first, std::uint64_t count, Tick now)
    {
        commitUpTo(now);
        return table_.runState(first, count);
    }

    bool
    inFlight(PageId page, Tick now)
    {
        commitUpTo(now);
        return table_.runState(page, 1).in_flight;
    }

    /** Latest arrival among the range's in-flight pages, or -1. */
    Tick
    arrivalTime(PageId first, std::uint64_t count) const
    {
        Tick latest = -1;
        for (auto it = pending_.lower_bound(first);
             it != pending_.end() && it->first < first + count; ++it)
            latest = std::max(latest, it->second.arrival);
        return latest;
    }

    Tick arrivalTime(PageId page) const { return pending(page).arrival; }

    mem::HeterogeneousMemory::FlightInfo
    flightInfo(PageId page) const
    {
        const Pending &p = pending(page);
        mem::HeterogeneousMemory::FlightInfo fi;
        fi.toward_fast = p.dst < p.src;
        fi.link = fi.toward_fast ? mem::tierIndex(p.dst)
                                 : mem::tierIndex(p.dst) - 1;
        return fi;
    }

    /**
     * True if @p a and @p b are both in flight in one extent-engine
     * run: scheduled by one batch from one requested run, out of one
     * tier, with no page skipped between them.
     */
    bool
    sameRun(PageId a, PageId b) const
    {
        auto x = pending_.find(a);
        auto y = pending_.find(b);
        return x != pending_.end() && y != pending_.end() &&
               x->second.run == y->second.run;
    }

    Tick
    migratePage(PageId page, Tier dst, Tick ready)
    {
        const PageRun one{ page, 1 };
        if (migratePages({ &one, 1 }, dst, ready) == 0)
            return -1;
        return arrivalTime(page);
    }

    /** One page at a time: skip ineligible pages, stop at the first
     *  page the destination cannot hold. */
    std::size_t
    migratePages(std::span<const PageRun> runs, Tier dst, Tick ready)
    {
        commitUpTo(ready);
        const unsigned d = std::min(mem::tierIndex(dst), numTiers() - 1);
        dst = mem::makeTier(d);
        std::uint32_t startup_paid = 0;
        std::size_t scheduled = 0;
        for (const PageRun &r : runs) {
            // A new extent-engine run starts at every requested run, at
            // every skipped page, and at every change of source tier.
            bool extends = false;
            for (PageId p = r.first; p < r.endPage(); ++p) {
                const mem::PageRunState e = table_.runState(p, 1);
                if (e.in_flight || e.tier == dst) {
                    extends = false;
                    continue;
                }
                if (!tiers_[d].tryReserve(mem::kPageSize))
                    return scheduled;
                const unsigned src = mem::tierIndex(e.tier);
                if (!extends || pending_.at(p - 1).src != e.tier)
                    ++next_run_;
                extends = true;
                Tick t = ready;
                auto leg = [&](sim::BandwidthChannel &ch, std::uint32_t bit) {
                    t = ch.submitWithStartup(
                        t, mem::kPageSize,
                        (startup_paid & bit) ? 0 : ch.startupLatency());
                    startup_paid |= bit;
                };
                if (d < src)
                    for (unsigned l = src; l-- > d;)
                        leg(links_[l].up, 1u << (2 * l));
                else
                    for (unsigned l = src; l < d; ++l)
                        leg(links_[l].down, 1u << (2 * l + 1));
                table_.beginMigrationRun(p, 1, e.tier, dst);
                pending_[p] = { t, e.tier, dst, next_run_ };
                if (d < src) {
                    stats_.promoted_bytes += mem::kPageSize;
                    ++stats_.promoted_pages;
                } else {
                    stats_.demoted_bytes += mem::kPageSize;
                    ++stats_.demoted_pages;
                }
                ++scheduled;
            }
        }
        return scheduled;
    }

    bool
    teleportPage(PageId page, Tier dst, Tick now)
    {
        commitUpTo(now);
        const mem::PageRunState e = table_.runState(page, 1);
        if (e.in_flight)
            return false;
        if (e.tier == dst)
            return true;
        if (!tiers_[mem::tierIndex(dst)].tryReserve(mem::kPageSize))
            return false;
        table_.beginMigrationRun(page, 1, e.tier, dst);
        table_.commitMigrationRun(page, 1, e.tier, dst);
        release(e.tier);
        return true;
    }

    /** Commit every page whose own arrival is <= @p now. */
    void
    commitUpTo(Tick now)
    {
        for (auto it = pending_.begin(); it != pending_.end();) {
            if (it->second.arrival > now) {
                ++it;
                continue;
            }
            table_.commitMigrationRun(it->first, 1, it->second.src,
                                      it->second.dst);
            release(it->second.src);
            it = pending_.erase(it);
        }
    }

    void
    setMigrationBandwidthScale(double promote, double demote)
    {
        for (Link &l : links_) {
            l.up.setBandwidth(l.base_up_bw * promote);
            l.down.setBandwidth(l.base_down_bw * demote);
        }
    }

    void
    stallMigration(Tick now, Tick promote_for, Tick demote_for)
    {
        for (Link &l : links_) {
            if (promote_for > 0)
                l.up.blockUntil(now + promote_for);
            if (demote_for > 0)
                l.down.blockUntil(now + demote_for);
        }
    }

  private:
    struct Link {
        sim::BandwidthChannel up;
        sim::BandwidthChannel down;
        double base_up_bw;
        double base_down_bw;
    };
    /** One in-flight page's migration. */
    struct Pending {
        Tick arrival;
        Tier src;
        Tier dst;
        std::uint64_t run; ///< extent-engine run it belongs to
    };

    const Pending &
    pending(PageId page) const
    {
        auto it = pending_.find(page);
        SENTINEL_ASSERT(it != pending_.end(), "page %llu is not in flight",
                        static_cast<unsigned long long>(page));
        return it->second;
    }

    bool
    tryMap(PageId page, unsigned t)
    {
        if (!tiers_[t].tryReserve(mem::kPageSize))
            return false;
        table_.mapRange(page, 1, mem::makeTier(t));
        return true;
    }

    void release(Tier t) { tiers_[mem::tierIndex(t)].release(mem::kPageSize); }

    std::vector<mem::MemoryTier> tiers_;
    std::vector<Link> links_;
    RefPageTable table_;
    std::map<PageId, Pending> pending_; ///< by page
    std::uint64_t next_run_ = 0;
    mem::HmStats stats_;
};

} // namespace sentinel::testing

#endif // SENTINEL_TESTS_SUPPORT_REF_HM_HH
