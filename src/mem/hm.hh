/**
 * @file
 * The heterogeneous memory system facade.
 *
 * Combines an ordered chain of MemoryTiers (fastest first), a
 * PageTable, and a migration engine of per-link serialized DMA channel
 * pairs: link i connects tiers i and i+1 with an "up" channel (toward
 * fast) and a "down" channel (toward slow), mirroring the paper's two
 * migration helper threads per link that run in parallel with
 * training.  The classic configuration is a two-tier chain with a
 * single link whose channels keep their historical names "promote" and
 * "demote".  All policies and the Sentinel runtime talk to memory
 * exclusively through this class.
 *
 * The page table has one implementation; the map-backed table the
 * tests diff it against (tests/support/ref_page_table.hh) is a
 * test-only reference model, never built into this class.
 *
 * Capacity protocol: a migration reserves destination-tier space when
 * it is scheduled and releases source-tier space when it completes
 * (lazily committed as simulated time advances), so fast-memory
 * occupancy is never under-counted.  A transfer that crosses several
 * links streams store-and-forward — each leg queues on its own channel
 * and the page "arrives" when the final leg completes; intermediate
 * tiers are not occupied.
 *
 * The migration engine is extent-granular: a batch is a list of page
 * runs, each leg of a run is one BandwidthChannel::submitRun(), and a
 * scheduled run is one pending descriptor whose per-page arrivals are
 * a closed-form sim::ArrivalCurve.  Scheduling and commit cost scale
 * with runs, not pages, while every arrival tick equals what
 * page-at-a-time submission would give (the per-page engine it is
 * diffed against is test-only: tests/support/ref_hm.hh).
 *
 * The pending runs are the only record of in-flight state: the page
 * table keeps just a flight bit per page.  An index of the runs sorted
 * by live start finds the run that owns an in-flight page by binary
 * search.  Freeing pages mid-flight cuts them out of their runs (a
 * head, a tail, a whole run, or a middle that splits one run in two),
 * so a later commit can never reach a freed page.
 */

#ifndef SENTINEL_MEM_HM_HH
#define SENTINEL_MEM_HM_HH

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/units.hh"
#include "mem/page.hh"
#include "mem/page_table.hh"
#include "mem/tier.hh"
#include "sim/bandwidth_channel.hh"
#include "telemetry/attribution.hh"
#include "telemetry/session.hh"

namespace sentinel::mem {

/** Migration link description. */
struct MigrationParams {
    double promote_bw = 0.0;  ///< toward-fast bytes/second
    double demote_bw = 0.0;   ///< toward-slow bytes/second
    Tick startup = 0;         ///< per-transfer setup (syscall / launch)
};

/** Aggregate counters exposed for tables and figures. */
struct HmStats {
    std::uint64_t promoted_bytes = 0;
    std::uint64_t demoted_bytes = 0;
    std::uint64_t promoted_pages = 0;
    std::uint64_t demoted_pages = 0;
};

class HeterogeneousMemory
{
  public:
    /**
     * @p tiers is ordered fastest-first; @p links[i] connects tiers i
     * and i+1 (so links.size() must be tiers.size() - 1).  The classic
     * two-tier system is ({fast, slow}, {migration}).  A single-tier
     * chain has no links and never migrates.
     */
    HeterogeneousMemory(std::vector<TierParams> tiers,
                        std::vector<MigrationParams> links);

    // --- Topology ------------------------------------------------------

    unsigned numTiers() const { return static_cast<unsigned>(tiers_.size()); }
    unsigned numLinks() const { return static_cast<unsigned>(links_.size()); }

    /** The last (slowest) tier of the chain. */
    Tier slowestTier() const { return makeTier(numTiers() - 1); }

    // --- Mapping -------------------------------------------------------

    /**
     * Map [first, first+count) into @p preferred.  When it fills, the
     * suffix spills to the next slower tiers in order and finally back
     * toward the faster ones, with one reservation per tier.  A
     * completely full chain is a configuration error (fatal).
     */
    void mapRange(PageId first, std::uint64_t count, Tier preferred);

    /**
     * Unmap [first, first+count) (committing arrivals first).  Pages in
     * flight are cut out of their pending runs, each run releasing its
     * destination reservation once; the range's own space is released
     * with one release per tier.
     */
    void unmapRange(PageId first, std::uint64_t count, Tick now);

    bool isMapped(PageId page) const { return table_.isMapped(page); }

    // --- Residency -----------------------------------------------------

    /**
     * Tier where @p page's data can be read at time @p now.  A page in
     * flight is served from its source tier.
     */
    Tier residentTier(PageId page, Tick now);

    /** True if @p page has a migration still in flight at @p now. */
    bool inFlight(PageId page, Tick now);

    /**
     * Longest prefix of [first, first+count) whose pages share one
     * (tier, in_flight) state at @p now — the executor's extent walk.
     */
    PageRunState residentRange(PageId first, std::uint64_t count, Tick now);

    /** True if any page of [first, first+count) is migrating at @p now. */
    bool inFlightAny(PageId first, std::uint64_t count, Tick now);

    /**
     * Latest arrival among the in-flight pages of [first, first+count),
     * or -1 if none is in flight.  Call commitUpTo() first to ask about
     * a given time.
     */
    Tick arrivalTime(PageId first, std::uint64_t count) const;

    /** Arrival time of @p page's migration (page must be in flight). */
    Tick arrivalTime(PageId page) const;

    /** Direction and final-leg link of an in-flight page's migration. */
    struct FlightInfo {
        bool toward_fast = false;
        unsigned link = 0; ///< link whose completion the page waits on
    };
    FlightInfo flightInfo(PageId page) const;

    // --- Migration -----------------------------------------------------

    /**
     * Schedule moving @p page to @p dst, starting no earlier than
     * @p ready — a migratePages() batch of one page.
     *
     * @return the completion tick, or -1 if the destination is full or
     *         the page is already at/moving to @p dst.
     */
    Tick migratePage(PageId page, Tier dst, Tick ready);

    /**
     * Migrate a batch of page runs as ONE transfer (a single
     * move_pages() call / one cudaMemPrefetchAsync): the per-transfer
     * setup cost is paid once per channel, not per page, and the pages
     * stream in run order.  Transfers that cross several links stream
     * store-and-forward, each leg on its own channel.  Pages already
     * at/moving to @p dst are skipped; migration stops early if the
     * destination fills.
     *
     * @return the number of pages whose migration was scheduled.
     */
    std::size_t migratePages(std::span<const PageRun> runs, Tier dst,
                             Tick ready);

    /**
     * Instantly remap @p page into @p dst WITHOUT a data transfer —
     * the memory-system equivalent of discarding the contents and
     * rematerializing them later (Capuchin-style recomputation frees
     * device memory with no traffic; the replayed producer writes the
     * new copy).
     *
     * @return false if @p dst has no space (nothing changes).
     */
    bool teleportPage(PageId page, Tier dst, Tick now);

    /**
     * Apply every migration completion with arrival <= @p now.  Called
     * from every residency query, so the common no-op case (nothing
     * pending, or nothing due yet) is a single inline comparison
     * against the cached earliest arrival.
     */
    void
    commitUpTo(Tick now)
    {
        if (now < next_arrival_)
            return;
        drainArrivals(now);
    }

    /** Idle time of link 0's toward-fast / toward-slow channel (a
     *  single-tier chain has no links and is never busy). */
    Tick
    promoteBusyUntil() const
    {
        return links_.empty() ? 0 : links_[0].up.busyUntil();
    }
    Tick
    demoteBusyUntil() const
    {
        return links_.empty() ? 0 : links_[0].down.busyUntil();
    }

    // --- Introspection --------------------------------------------------

    const TierParams &tierParams(Tier t) const;
    MemoryTier &tier(Tier t) { return tiers_[tierIndex(t)]; }
    const MemoryTier &tier(Tier t) const { return tiers_[tierIndex(t)]; }

    const HmStats &stats() const { return stats_; }
    /** Link 0's channels.  A single-tier chain has no links; policies
     *  still read bandwidths for planning, so these return an idle
     *  placeholder channel there. */
    const sim::BandwidthChannel &
    promoteChannel() const
    {
        return links_.empty() ? nullChannel() : links_[0].up;
    }
    const sim::BandwidthChannel &
    demoteChannel() const
    {
        return links_.empty() ? nullChannel() : links_[0].down;
    }

    /** Channel of @p link in the given direction. */
    const sim::BandwidthChannel &
    linkChannel(unsigned link, bool toward_fast) const
    {
        return toward_fast ? links_[link].up : links_[link].down;
    }

    /**
     * Attach a telemetry session (null detaches).  Every scheduled
     * migration batch then emits one Promotion/Demotion event and
     * updates the per-direction byte counters; disabled telemetry is a
     * single null check on the migration paths.
     */
    void setTelemetry(telemetry::Session *session);

    /**
     * Attach a stall-attribution engine (null detaches; independent of
     * the telemetry session).  Every scheduled migration reports its
     * per-link legs, direction, and volume so per-layer / per-interval
     * / per-link migration bytes accrue in the attribution buckets.
     */
    void setAttribution(telemetry::AttributionEngine *attr) { attr_ = attr; }

    // --- Fault injection -------------------------------------------------
    //
    // All scales are ABSOLUTE multipliers on the construction-time
    // baseline (captured once), so re-applying the same scale every
    // step is idempotent rather than compounding.

    /** Re-rate every link's channels relative to their baselines. */
    void setMigrationBandwidthScale(double promote, double demote);

    /** Scale the fast tier's capacity relative to its baseline. */
    void setFastCapacityScale(double scale) { setTierCapacityScale(0, scale); }

    /**
     * Scale any tier's capacity relative to its construction-time
     * baseline (chaos `shrink` faults; a co-tenant claiming memory on
     * that tier).  Capacity is kept page-granular, and shrinking below
     * current usage is legal on every tier — resident pages stay, new
     * reservations fail until usage drains.
     */
    void setTierCapacityScale(unsigned tier_idx, double scale);

    /** Block every link's channels for the durations starting @p now. */
    void stallMigration(Tick now, Tick promote_for, Tick demote_for);

    /** Clear pages, reservations, channels and stats. */
    void reset();

  private:
    /** One link of the chain: tier i <-> tier i+1. */
    struct Link {
        sim::BandwidthChannel up;   ///< tier i+1 -> tier i (toward fast)
        sim::BandwidthChannel down; ///< tier i -> tier i+1 (toward slow)
        double base_up_bw = 0.0;
        double base_down_bw = 0.0;
    };

    void noteMigrationEvent(bool promote, Tick ready, Tick arrival,
                            std::uint64_t bytes, std::uint32_t first_page);

    /** Idle placeholder channel for link queries on linkless chains. */
    static const sim::BandwidthChannel &nullChannel();

    /**
     * Queue @p count pages through every leg from @p src to @p dst,
     * store-and-forward: one submitRun() per leg, each leg ready when
     * the previous one delivers.  Each channel's per-transfer startup
     * is paid by the first run of the batch to touch it;
     * @p startup_paid is the per-batch bitmask of channels already
     * charged (bit 2*link + direction).
     *
     * @return the final leg's arrival curve.
     */
    sim::ArrivalCurve submitLegs(unsigned src, unsigned dst, Tick ready,
                                 std::uint64_t count,
                                 std::uint32_t &startup_paid);

    static constexpr Tick kNoArrival = std::numeric_limits<Tick>::max();

    /**
     * One scheduled run: pages [first, first+count) moving from tier
     * @c src to tier @c dst, page k arriving at curve.at(k).  Pages
     * before @c cursor are committed or were freed in flight; the live
     * range [first+cursor, first+count) is exactly the run's pages
     * still in flight.
     */
    struct PendingRun {
        PageId first = 0;
        std::uint64_t count = 0;
        std::uint64_t cursor = 0;
        unsigned src = 0;
        unsigned dst = 0;
        sim::ArrivalCurve curve;

        PageId liveStart() const { return first + cursor; }
        PageId liveEnd() const { return first + count; }
    };
    /**
     * Pending-heap node: a run's next uncommitted arrival and its slot
     * in runs_.  The heap moves these small keys, never the runs.
     */
    struct PendingKey {
        Tick next_arrival = 0;
        std::uint32_t slot = 0;
    };
    struct KeyLater {
        bool
        operator()(const PendingKey &a, const PendingKey &b) const
        {
            return a.next_arrival > b.next_arrival;
        }
    };

    /** Out-of-line slow path of commitUpTo(). */
    void drainArrivals(Tick now);

    /** Store @p run in a free slot and queue its next arrival. */
    void addRun(const PendingRun &run);

    /** Position in live_ of the first run whose live range ends after
     *  @p page. */
    std::size_t firstLiveAfter(PageId page) const;

    /** The pending run that owns in-flight @p page. */
    const PendingRun &owningRun(PageId page) const;

    /** Cut [lo, hi) out of every pending run, releasing the cut pages'
     *  destination reservations. */
    void cutPending(PageId lo, PageId hi);

    std::vector<MemoryTier> tiers_; ///< fastest-first chain
    std::vector<Link> links_;       ///< links_[i]: tiers i <-> i+1
    std::vector<std::uint64_t> base_capacity_; ///< per tier
    PageTable table_;
    std::vector<PendingRun> runs_;           ///< scheduled runs, by slot
    std::vector<std::uint32_t> free_slots_;  ///< reusable runs_ slots
    std::vector<PendingKey> pending_;        ///< min-heap (KeyLater)
    /** Slots of the runs with a non-empty live range, sorted by live
     *  start.  Live ranges are disjoint, so committing a prefix (which
     *  advances a cursor) never reorders them. */
    std::vector<std::uint32_t> live_;
    Tick next_arrival_ = kNoArrival; ///< pending_ top's key (cached)
    HmStats stats_;

    telemetry::Session *telemetry_ = nullptr;
    telemetry::AttributionEngine *attr_ = nullptr;
    telemetry::Counter *promoted_ctr_ = nullptr;
    telemetry::Counter *demoted_ctr_ = nullptr;
};

} // namespace sentinel::mem

#endif // SENTINEL_MEM_HM_HH
