#include "mem/hm.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace sentinel::mem {

namespace {

/** Channel names: link 0 keeps the historical "promote"/"demote". */
std::string
channelName(const char *base, unsigned link)
{
    if (link == 0)
        return base;
    return std::string(base) + std::to_string(link);
}

} // namespace

const sim::BandwidthChannel &
HeterogeneousMemory::nullChannel()
{
    // Non-zero bandwidth so planning ratios stay finite; the channel is
    // never submitted to (a single-tier chain cannot migrate).
    static const sim::BandwidthChannel ch("none", 1.0, 0);
    return ch;
}

HeterogeneousMemory::HeterogeneousMemory(std::vector<TierParams> tiers,
                                         std::vector<MigrationParams> links)
{
    SENTINEL_ASSERT(!tiers.empty() && tiers.size() <= kMaxTiers,
                    "tier chain must have 1..%u tiers (got %zu)",
                    kMaxTiers, tiers.size());
    SENTINEL_ASSERT(links.size() + 1 == tiers.size(),
                    "tier chain of %zu tiers needs %zu links (got %zu)",
                    tiers.size(), tiers.size() - 1, links.size());
    tiers_.reserve(tiers.size());
    base_capacity_.reserve(tiers.size());
    for (TierParams &tp : tiers) {
        base_capacity_.push_back(tp.capacity);
        tiers_.emplace_back(std::move(tp));
    }
    links_.reserve(links.size());
    for (unsigned i = 0; i < links.size(); ++i) {
        const MigrationParams &mp = links[i];
        links_.push_back(Link{
            sim::BandwidthChannel(channelName("promote", i), mp.promote_bw,
                                  mp.startup),
            sim::BandwidthChannel(channelName("demote", i), mp.demote_bw,
                                  mp.startup),
            mp.promote_bw, mp.demote_bw });
    }
}

void
HeterogeneousMemory::mapRange(PageId first, std::uint64_t count,
                              Tier preferred)
{
    if (count == 0)
        return;
    // Fill the preferred tier, then spill the suffix tier-by-tier:
    // slower tiers first (nearest-slower outward), then back toward the
    // faster ones — the two-tier behavior ("the other tier") is the
    // n = 2 case of this walk.  A preference beyond the chain's end
    // clamps to the slowest tier.
    const unsigned pref = std::min(tierIndex(preferred), numTiers() - 1);
    PageId next = first;
    std::uint64_t left = count;
    auto take = [&](unsigned t) {
        std::uint64_t n = std::min<std::uint64_t>(
            left, tier(makeTier(t)).free() / kPageSize);
        if (n == 0)
            return;
        bool ok = tier(makeTier(t)).tryReserve(n * kPageSize);
        SENTINEL_ASSERT(ok, "range reservation failed");
        table_.mapRange(next, n, makeTier(t));
        next += n;
        left -= n;
    };
    take(pref);
    for (unsigned t = pref + 1; t < numTiers() && left > 0; ++t)
        take(t);
    for (unsigned t = pref; t-- > 0 && left > 0;)
        take(t);
    if (left > 0)
        SENTINEL_FATAL(
            "out of memory: all %u tiers full mapping %llu pages at %llu "
            "(fast %llu/%llu, slowest %llu/%llu)",
            numTiers(), static_cast<unsigned long long>(left),
            static_cast<unsigned long long>(next),
            static_cast<unsigned long long>(tiers_.front().used()),
            static_cast<unsigned long long>(tiers_.front().capacity()),
            static_cast<unsigned long long>(tiers_.back().used()),
            static_cast<unsigned long long>(tiers_.back().capacity()));
}

void
HeterogeneousMemory::unmapRange(PageId first, std::uint64_t count, Tick now)
{
    commitUpTo(now);
    if (table_.anyInFlight(first, count))
        cutPending(first, first + count);
    const TierPages freed = table_.unmapRange(first, count);
    for (unsigned t = 0; t < numTiers(); ++t)
        if (freed[t] > 0)
            tiers_[t].release(freed[t] * kPageSize);
}

Tier
HeterogeneousMemory::residentTier(PageId page, Tick now)
{
    commitUpTo(now);
    return table_.runState(page, 1).tier;
}

bool
HeterogeneousMemory::inFlight(PageId page, Tick now)
{
    commitUpTo(now);
    return table_.runState(page, 1).in_flight;
}

PageRunState
HeterogeneousMemory::residentRange(PageId first, std::uint64_t count,
                                   Tick now)
{
    commitUpTo(now);
    return table_.runState(first, count);
}

bool
HeterogeneousMemory::inFlightAny(PageId first, std::uint64_t count, Tick now)
{
    commitUpTo(now);
    return table_.anyInFlight(first, count);
}

std::size_t
HeterogeneousMemory::firstLiveAfter(PageId page) const
{
    return static_cast<std::size_t>(
        std::partition_point(live_.begin(), live_.end(),
                             [&](std::uint32_t slot) {
                                 return runs_[slot].liveEnd() <= page;
                             }) -
        live_.begin());
}

const HeterogeneousMemory::PendingRun &
HeterogeneousMemory::owningRun(PageId page) const
{
    const std::size_t i = firstLiveAfter(page);
    SENTINEL_ASSERT(i < live_.size() && runs_[live_[i]].liveStart() <= page,
                    "page %llu is not in flight",
                    static_cast<unsigned long long>(page));
    return runs_[live_[i]];
}

Tick
HeterogeneousMemory::arrivalTime(PageId first, std::uint64_t count) const
{
    // Arrivals never decrease along a run, so each overlapping run's
    // latest is at its last page inside the range.
    const PageId end = first + count;
    Tick latest = -1;
    for (std::size_t i = firstLiveAfter(first); i < live_.size(); ++i) {
        const PendingRun &r = runs_[live_[i]];
        if (r.liveStart() >= end)
            break;
        latest = std::max(
            latest, r.curve.at(std::min(r.liveEnd(), end) - 1 - r.first));
    }
    return latest;
}

Tick
HeterogeneousMemory::arrivalTime(PageId page) const
{
    const PendingRun &r = owningRun(page);
    return r.curve.at(page - r.first);
}

HeterogeneousMemory::FlightInfo
HeterogeneousMemory::flightInfo(PageId page) const
{
    const PendingRun &r = owningRun(page);
    FlightInfo fi;
    fi.toward_fast = r.dst < r.src;
    // The arrival the caller waits on is the FINAL leg's completion:
    // the link adjacent to the destination tier.
    fi.link = fi.toward_fast ? r.dst : r.dst - 1;
    return fi;
}

sim::ArrivalCurve
HeterogeneousMemory::submitLegs(unsigned src, unsigned dst, Tick ready,
                                std::uint64_t count,
                                std::uint32_t &startup_paid)
{
    sim::ArrivalCurve t = sim::ArrivalCurve::flat(ready);
    auto leg = [&](sim::BandwidthChannel &ch, std::uint32_t bit) {
        const Tick startup = (startup_paid & bit) ? 0 : ch.startupLatency();
        t = ch.submitRun(t, count, kPageSize, startup);
        startup_paid |= bit;
    };
    if (dst < src)
        for (unsigned l = src; l-- > dst;)
            leg(links_[l].up, 1u << (2 * l));
    else
        for (unsigned l = src; l < dst; ++l)
            leg(links_[l].down, 1u << (2 * l + 1));
    return t;
}

Tick
HeterogeneousMemory::migratePage(PageId page, Tier dst, Tick ready)
{
    const PageRun one{ page, 1 };
    if (migratePages(std::span(&one, 1), dst, ready) == 0)
        return -1;
    return arrivalTime(page);
}

std::size_t
HeterogeneousMemory::migratePages(std::span<const PageRun> runs, Tier dst,
                                  Tick ready)
{
    commitUpTo(ready);
    // Clamp to the chain (a single-tier system's "demote to slow"
    // becomes a no-op below: every page is already in the only tier).
    const unsigned d = std::min(tierIndex(dst), numTiers() - 1);
    dst = makeTier(d);
    std::size_t scheduled = 0;
    std::uint32_t startup_paid = 0;
    // Per-direction batch telemetry (a batch migrating to a MIDDLE
    // tier can mix promotes and demotes); per-link attribution bytes.
    std::uint64_t dir_bytes[2] = { 0, 0 };      // [promote, demote]
    Tick dir_last[2] = { ready, ready };
    std::uint32_t dir_first[2] = { 0, 0 };
    std::uint64_t link_bytes[2][kMaxTiers] = {};
    // Split each requested run at (tier, in_flight) boundaries; every
    // eligible piece reserves, streams through its legs, and begins
    // migration as one pending run.
    bool dest_full = false;
    for (const PageRun &req : runs) {
        PageId run = req.first;
        const PageId run_end = req.endPage();
        while (run < run_end && !dest_full) {
            PageRunState rs = table_.runState(run, run_end - run);
            if (rs.in_flight || rs.tier == dst) {
                run += rs.count;
                continue;
            }
            // Destination nearly full: claim what fits, then let the
            // caller retry later.
            std::uint64_t take = std::min<std::uint64_t>(
                rs.count, tier(dst).free() / kPageSize);
            dest_full = take < rs.count;
            if (take == 0)
                break;
            bool ok = tier(dst).tryReserve(take * kPageSize);
            SENTINEL_ASSERT(ok, "migration reservation failed");

            const unsigned src = tierIndex(rs.tier);
            const unsigned dir = d < src ? 0 : 1;
            sim::ArrivalCurve arrivals =
                submitLegs(src, d, ready, take, startup_paid);
            table_.beginMigrationRun(run, take, rs.tier, dst);
            addRun({ run, take, 0, src, d, arrivals });

            if (dir_bytes[dir] == 0)
                dir_first[dir] = static_cast<std::uint32_t>(run);
            dir_bytes[dir] += take * kPageSize;
            dir_last[dir] = arrivals.at(take - 1);
            scheduled += take;

            if (dir == 0) {
                stats_.promoted_bytes += take * kPageSize;
                stats_.promoted_pages += take;
                for (unsigned l = src; l-- > d;)
                    link_bytes[0][l] += take * kPageSize;
            } else {
                stats_.demoted_bytes += take * kPageSize;
                stats_.demoted_pages += take;
                for (unsigned l = src; l < d; ++l)
                    link_bytes[1][l] += take * kPageSize;
            }
            run += take;
        }
        if (dest_full)
            break;
    }
    if (scheduled > 0)
        next_arrival_ = pending_.front().next_arrival;
    // One event per batch and direction (matching the one-transfer cost
    // model), not per page — keeps the ring proportional to decisions,
    // not volume.
    if (telemetry_ && dir_bytes[0] > 0)
        noteMigrationEvent(true, ready, dir_last[0], dir_bytes[0],
                           dir_first[0]);
    if (telemetry_ && dir_bytes[1] > 0)
        noteMigrationEvent(false, ready, dir_last[1], dir_bytes[1],
                           dir_first[1]);
    if (attr_ && scheduled > 0) {
        for (unsigned l = 0; l < numLinks(); ++l) {
            if (link_bytes[0][l] > 0)
                attr_->noteMigration(l, true, link_bytes[0][l]);
            if (link_bytes[1][l] > 0)
                attr_->noteMigration(l, false, link_bytes[1][l]);
        }
    }
    return scheduled;
}

void
HeterogeneousMemory::noteMigrationEvent(bool promote, Tick ready,
                                        Tick arrival, std::uint64_t bytes,
                                        std::uint32_t first_page)
{
    if (promote) {
        telemetry_->emit(telemetry::EventType::Promotion, ready,
                         arrival - ready, bytes, first_page);
        promoted_ctr_->add(bytes);
    } else {
        telemetry_->emit(telemetry::EventType::Demotion, ready,
                         arrival - ready, bytes, first_page);
        demoted_ctr_->add(bytes);
    }
}

void
HeterogeneousMemory::setTelemetry(telemetry::Session *session)
{
    telemetry_ = session;
    if (session) {
        promoted_ctr_ = &session->metrics().counter("mem.promoted_bytes");
        demoted_ctr_ = &session->metrics().counter("mem.demoted_bytes");
    } else {
        promoted_ctr_ = nullptr;
        demoted_ctr_ = nullptr;
    }
}

void
HeterogeneousMemory::setMigrationBandwidthScale(double promote, double demote)
{
    SENTINEL_ASSERT(promote > 0.0 && demote > 0.0,
                    "bandwidth scales must be positive");
    for (Link &l : links_) {
        l.up.setBandwidth(l.base_up_bw * promote);
        l.down.setBandwidth(l.base_down_bw * demote);
    }
}

void
HeterogeneousMemory::setTierCapacityScale(unsigned tier_idx, double scale)
{
    SENTINEL_ASSERT(scale > 0.0, "capacity scale must be positive");
    SENTINEL_ASSERT(tier_idx < numTiers(),
                    "capacity scale for tier %u of a %u-tier chain",
                    tier_idx, numTiers());
    std::uint64_t cap = static_cast<std::uint64_t>(
        static_cast<double>(base_capacity_[tier_idx]) * scale);
    // Keep whole pages so reservation arithmetic stays page-granular.
    tiers_[tier_idx].setCapacity(cap / kPageSize * kPageSize);
}

void
HeterogeneousMemory::stallMigration(Tick now, Tick promote_for,
                                    Tick demote_for)
{
    for (Link &l : links_) {
        if (promote_for > 0)
            l.up.blockUntil(now + promote_for);
        if (demote_for > 0)
            l.down.blockUntil(now + demote_for);
    }
}

bool
HeterogeneousMemory::teleportPage(PageId page, Tier dst, Tick now)
{
    commitUpTo(now);
    const PageRunState rs = table_.runState(page, 1);
    if (rs.in_flight)
        return false; // let the transfer land first
    if (rs.tier == dst)
        return true;
    if (!tier(dst).tryReserve(kPageSize))
        return false;
    // Instant flip: a begin and a commit, with no transfer to wait on.
    table_.beginMigrationRun(page, 1, rs.tier, dst);
    table_.commitMigrationRun(page, 1, rs.tier, dst);
    tier(rs.tier).release(kPageSize);
    return true;
}

void
HeterogeneousMemory::addRun(const PendingRun &run)
{
    std::uint32_t slot;
    if (free_slots_.empty()) {
        slot = static_cast<std::uint32_t>(runs_.size());
        runs_.emplace_back();
    } else {
        slot = free_slots_.back();
        free_slots_.pop_back();
    }
    runs_[slot] = run;
    pending_.push_back({ run.curve.at(run.cursor), slot });
    std::push_heap(pending_.begin(), pending_.end(), KeyLater{});
    live_.insert(live_.begin() + static_cast<std::ptrdiff_t>(
                                     firstLiveAfter(run.liveStart())),
                 slot);
}

void
HeterogeneousMemory::cutPending(PageId lo, PageId hi)
{
    std::size_t i = firstLiveAfter(lo);
    while (i < live_.size()) {
        PendingRun &r = runs_[live_[i]];
        if (r.liveStart() >= hi)
            break;
        const PageId cut_lo = std::max(r.liveStart(), lo);
        const PageId cut_hi = std::min(r.liveEnd(), hi);
        tiers_[r.dst].release((cut_hi - cut_lo) * kPageSize);
        if (cut_lo == r.liveStart() && cut_hi == r.liveEnd()) {
            // The whole live range: the run's heap key frees its slot
            // when it comes due.
            r.cursor = r.count;
            live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(i));
            continue;
        }
        if (cut_lo == r.liveStart()) {
            r.cursor = cut_hi - r.first; // the head (its key is now early)
        } else if (cut_hi == r.liveEnd()) {
            r.count = cut_lo - r.first; // the tail
        } else {
            // The middle: the pages past the cut become a second run on
            // the same curve, and the range ends inside this run.  The
            // new key is no earlier than this run's, so next_arrival_
            // still holds.
            PendingRun tail = r;
            tail.cursor = cut_hi - r.first;
            r.count = cut_lo - r.first;
            addRun(tail);
            return;
        }
        ++i;
    }
}

void
HeterogeneousMemory::drainArrivals(Tick now)
{
    while (!pending_.empty() && pending_.front().next_arrival <= now) {
        std::pop_heap(pending_.begin(), pending_.end(), KeyLater{});
        PendingKey &key = pending_.back();
        PendingRun &r = runs_[key.slot];
        // Arrivals are non-decreasing along a run, so everything due
        // is one prefix — committed as one page-table run.  A run cut
        // at its head keeps an early key, so the prefix may end before
        // the cursor.
        const std::uint64_t due =
            std::max(r.cursor, r.curve.arrivedBy(now, r.count));
        if (due > r.cursor) {
            if (due == r.count)
                live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(
                                                firstLiveAfter(
                                                    r.liveStart())));
            const std::uint64_t n = due - r.cursor;
            table_.commitMigrationRun(r.liveStart(), n, makeTier(r.src),
                                      makeTier(r.dst));
            // Committed pages now live at their destination; free
            // their old homes.
            tiers_[r.src].release(n * kPageSize);
            r.cursor = due;
        }
        if (r.cursor < r.count) {
            key.next_arrival = r.curve.at(r.cursor);
            std::push_heap(pending_.begin(), pending_.end(), KeyLater{});
        } else {
            free_slots_.push_back(key.slot);
            pending_.pop_back();
        }
    }
    next_arrival_ =
        pending_.empty() ? kNoArrival : pending_.front().next_arrival;
}

const TierParams &
HeterogeneousMemory::tierParams(Tier t) const
{
    return tier(t).params();
}

void
HeterogeneousMemory::reset()
{
    for (MemoryTier &t : tiers_)
        t.reset();
    for (Link &l : links_) {
        l.up.reset();
        l.down.reset();
    }
    table_.clear();
    runs_.clear();
    free_slots_.clear();
    pending_.clear();
    live_.clear();
    next_arrival_ = kNoArrival;
    stats_ = HmStats{};
}

} // namespace sentinel::mem
