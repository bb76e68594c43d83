/**
 * @file
 * Virtual page -> tier mapping, including the in-flight bit.
 *
 * A page that is migrating remains readable at its source tier until
 * the migration engine's transfer completes; the HeterogeneousMemory
 * facade owns every in-flight migration (its pending runs hold the
 * destination and the closed-form arrival curve) and commits arrivals
 * as simulated time advances.  The table records only what a residency
 * query needs: where each page lives and whether it is moving.
 *
 * The table is struct-of-arrays chunks.  The state of a page (tier +
 * in-flight bit) is ONE byte in a per-chunk state array, so lookups
 * are two loads, range walks and range checks compare eight state
 * bytes at a time, and beginning or committing a migration run is a
 * byte fill.  Each chunk also carries
 * summary counters (mapped / per-tier / in-flight page counts), which
 * answer the dominant runState() query — "is this whole range
 * uniform?" — in O(chunks) instead of O(pages).  Mapped-ness is
 * tracked with a per-chunk epoch so clear() is O(1).
 *
 * Its reference model is test-only: tests/support/ref_page_table.hh,
 * a std::map per page, is diffed against this table op by op.
 */

#ifndef SENTINEL_MEM_PAGE_TABLE_HH
#define SENTINEL_MEM_PAGE_TABLE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "mem/page.hh"

namespace sentinel::mem {

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

/** Page counts per tier, indexed by chain position. */
using TierPages = std::array<std::uint64_t, kMaxTiers>;

/** A flat map of mapped pages. */
class PageTable
{
  public:
    /** Map [first, first+count) into @p tier; none may be mapped. */
    void mapRange(PageId first, std::uint64_t count, Tier tier);

    /**
     * Remove [first, first+count); all must be mapped.  Pages in
     * flight are removed too (the caller has already dropped their
     * pending migrations).
     * @return the removed pages per (source) tier.
     */
    TierPages unmapRange(PageId first, std::uint64_t count);

    bool isMapped(PageId page) const;

    /**
     * Longest prefix of [first, first+count) whose pages share one
     * (tier, in_flight) state.  All pages must be mapped.
     */
    PageRunState runState(PageId first, std::uint64_t count) const;

    /** True if any page of [first, first+count) is migrating. */
    bool anyInFlight(PageId first, std::uint64_t count) const;

    /**
     * Mark [first, first+count) as migrating out of @p src toward
     * @p dest (src != dest).  Every page must be mapped, idle, and
     * resident in @p src.
     */
    void beginMigrationRun(PageId first, std::uint64_t count, Tier src,
                           Tier dest);

    /**
     * Land [first, first+count) in @p dest.  Every page must be mapped
     * and in flight out of @p src.
     */
    void commitMigrationRun(PageId first, std::uint64_t count, Tier src,
                            Tier dest);

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

    /**
     * Call @p fn(chunk, first_page, state, n) for each chunk-sized
     * piece of [first, first+count).  @p what names the operation in
     * the assert that every piece lies in a live chunk; null (mapping)
     * allocates missing chunks instead.
     */
    template <typename Fn>
    void forEachPiece(PageId first, std::uint64_t count, const char *what,
                      Fn &&fn);

    std::vector<Chunk> chunks_;
    std::uint32_t epoch_ = 1;

    std::size_t num_mapped_ = 0;
    std::size_t num_inflight_ = 0;
};

} // namespace sentinel::mem

#endif // SENTINEL_MEM_PAGE_TABLE_HH
