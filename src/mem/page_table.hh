/**
 * @file
 * Virtual page -> tier mapping, including in-flight migration state.
 *
 * A page that is migrating remains readable at its source tier until
 * the migration engine's transfer completes (arrival tick); the
 * HeterogeneousMemory facade lazily commits arrivals as simulated time
 * advances.
 *
 * The table is struct-of-arrays chunks.  The hot state of a page (tier
 * + in-flight bit) is ONE byte in a per-chunk state array, so lookups
 * are two loads and range walks are byte scans.  Cold migration state
 * (arrival tick, commit-guard sequence) lives in separate per-chunk
 * arrays allocated only once a chunk sees its first migration.  Each
 * chunk also carries summary counters (mapped / per-tier / in-flight
 * page counts), which answer the dominant runState() query — "is this
 * whole range uniform?" — in O(chunks) instead of O(pages).
 * Mapped-ness is tracked with a per-chunk epoch so clear() is O(1).
 *
 * Its reference model is test-only: tests/support/ref_page_table.hh,
 * a std::map per page, is diffed against this table op by op.
 */

#ifndef SENTINEL_MEM_PAGE_TABLE_HH
#define SENTINEL_MEM_PAGE_TABLE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/units.hh"
#include "mem/page.hh"
#include "sim/bandwidth_channel.hh"

namespace sentinel::mem {

/** Per-page state (a composed view; the table stores SoA). */
struct PageEntry {
    Tier tier = Tier::Slow;     ///< current (source) tier
    bool in_flight = false;     ///< migration scheduled, not yet arrived
    Tier dest = Tier::Slow;     ///< destination while in flight
    Tick arrival = 0;           ///< completion time while in flight
    std::uint64_t seq = 0;      ///< migration epoch, guards stale commits
};

static_assert(kMaxTiers <= 8, "tier index must fit the 3 state bits");

/**
 * State of the maximal uniform prefix of a page range: @c count leading
 * pages that share one (tier, in_flight) state.
 */
struct PageRunState {
    Tier tier = Tier::Slow;
    bool in_flight = false;
    std::uint64_t count = 0;
};

/** A flat map of mapped pages. */
class PageTable
{
  public:
    /** Map @p page into @p tier.  The page must not be mapped. */
    void map(PageId page, Tier tier);

    /** Map [first, first+count) into @p tier; none may be mapped. */
    void mapRange(PageId first, std::uint64_t count, Tier tier);

    /** Remove @p page.  The page must be mapped. */
    void unmap(PageId page);

    /** Remove [first, first+count); all must be mapped, none in flight. */
    void unmapRange(PageId first, std::uint64_t count);

    bool isMapped(PageId page) const;

    /** Entry for @p page (must be mapped), composed from the SoA
     *  arrays: dest/arrival/seq are meaningful only while in_flight. */
    PageEntry entry(PageId page) const;

    /**
     * Longest prefix of [first, first+count) whose pages share one
     * (tier, in_flight) state.  All pages must be mapped.
     */
    PageRunState runState(PageId first, std::uint64_t count) const;

    /** True if any page of [first, first+count) is migrating. */
    bool anyInFlight(PageId first, std::uint64_t count) const;

    /**
     * Mark @p page as migrating to @p dest, arriving at @p arrival (a
     * run of one).
     * @return the migration sequence number for this migration.
     */
    std::uint64_t beginMigration(PageId page, Tier dest, Tick arrival);

    /**
     * Complete the migration with sequence @p seq, if still pending.
     * @return true if the commit took effect (page flipped tiers).
     */
    bool commitMigration(PageId page, std::uint64_t seq);

    /**
     * Begin migrating the consecutive run [first, first+count) to
     * @p dest; page first+k arrives at @p arrivals.at(k).  Every page
     * must be mapped, idle, and resident away from @p dest — i.e. a
     * uniform eligible runState() prefix.  Sequence numbers are
     * contiguous: page first+k gets @return + k.
     */
    std::uint64_t beginMigrationRun(PageId first, std::uint64_t count,
                                    Tier dest,
                                    const sim::ArrivalCurve &arrivals);

    /**
     * Commit the consecutive run [first, first+count), where page
     * first+i carries sequence @p seq0 + i.  Pages freed or cancelled
     * while in flight are skipped, exactly as commitMigration().
     * @return the number of pages that actually flipped tiers.
     */
    std::uint64_t commitMigrationRun(PageId first, std::uint64_t count,
                                     std::uint64_t seq0);

    /** Abort an in-flight migration, leaving the page at its source. */
    void cancelMigration(PageId page);

    std::size_t numMapped() const { return num_mapped_; }

    /** Mapped pages with a migration still pending. */
    std::size_t numInFlight() const { return num_inflight_; }

    void clear();

  private:
    /**
     * Chunk geometry: 2^16 pages (64 KiB of state bytes) per chunk
     * keeps the directory small even for the policies that place
     * tensors at multi-TiB virtual bases, while one tensor's pages stay
     * within a handful of chunks.
     */
    static constexpr unsigned kChunkBits = 16;
    static constexpr std::uint64_t kChunkPages = 1ull << kChunkBits;
    static constexpr std::uint64_t kChunkMask = kChunkPages - 1;
    /** 2^36 pages = a 256 TiB virtual space; bounds directory growth. */
    static constexpr std::uint64_t kMaxPages = 1ull << 36;

    // Hot per-page state, one byte: bits 0-2 = resident tier index
    // (fastest-first chain position), bit 3 = migration in flight,
    // 0xFF = unmapped.
    static constexpr std::uint8_t kStateUnmapped = 0xFF;
    static constexpr std::uint8_t kStateTierMask = 0x07;
    static constexpr std::uint8_t kStateFlightBit = 0x08;

    static constexpr std::uint8_t
    stateByte(Tier t, bool in_flight)
    {
        return static_cast<std::uint8_t>(
            (tierIndex(t) & kStateTierMask) |
            (in_flight ? kStateFlightBit : 0));
    }
    static constexpr Tier
    tierOf(std::uint8_t s)
    {
        return makeTier(s & kStateTierMask);
    }
    static constexpr bool
    flightOf(std::uint8_t s)
    {
        return (s & kStateFlightBit) != 0;
    }

    struct Chunk {
        /** Chunk contents are valid iff epoch == PageTable::epoch_. */
        std::uint32_t epoch = 0;
        std::uint32_t mapped = 0;   ///< mapped pages in this chunk
        std::uint32_t inflight = 0; ///< mapped pages migrating
        /** Mapped pages resident in each tier (by current tier bits). */
        std::uint32_t tiers[kMaxTiers] = {};
        std::unique_ptr<std::uint8_t[]> state;
        // Cold migration SoA, allocated on the chunk's first migration.
        // `dest` holds the destination tier index while in flight (an
        // N-tier chain has more than one "other" tier to arrive at).
        std::unique_ptr<Tick[]> arrival;
        std::unique_ptr<std::uint64_t[]> seq;
        std::unique_ptr<std::uint8_t[]> dest;
    };

    /** Chunk holding @p page, or nullptr if absent/stale this epoch. */
    const Chunk *
    findChunk(PageId page) const
    {
        std::uint64_t c = page >> kChunkBits;
        if (c >= chunks_.size())
            return nullptr;
        const Chunk &ch = chunks_[c];
        return ch.epoch == epoch_ ? &ch : nullptr;
    }

    /** Chunk for @p page, allocated/recycled to the current epoch. */
    Chunk &chunkFor(PageId page);
    /** Ensure the chunk's cold migration arrays exist. */
    void ensureCold(Chunk &ch);

    std::vector<Chunk> chunks_;
    std::uint32_t epoch_ = 1;

    std::size_t num_mapped_ = 0;
    std::size_t num_inflight_ = 0;
    std::uint64_t next_seq_ = 1;
};

} // namespace sentinel::mem

#endif // SENTINEL_MEM_PAGE_TABLE_HH
