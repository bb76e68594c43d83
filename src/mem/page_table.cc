#include "mem/page_table.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/logging.hh"

namespace sentinel::mem {

PageTable::Chunk &
PageTable::chunkFor(PageId page)
{
    SENTINEL_ASSERT(page < kMaxPages, "page %llu beyond dense table range",
                    static_cast<unsigned long long>(page));
    std::uint64_t c = page >> kChunkBits;
    if (c >= chunks_.size())
        chunks_.resize(c + 1);
    Chunk &ch = chunks_[c];
    if (ch.epoch != epoch_) {
        // Stale (or fresh) chunk: recycle it lazily on first touch of
        // the new epoch.
        if (!ch.state)
            ch.state = std::make_unique<std::uint8_t[]>(kChunkPages);
        std::memset(ch.state.get(), kStateUnmapped, kChunkPages);
        ch.mapped = ch.inflight = 0;
        std::memset(ch.tiers, 0, sizeof(ch.tiers));
        ch.epoch = epoch_;
    }
    return ch;
}

template <typename Fn>
void
PageTable::forEachPiece(PageId first, std::uint64_t count, const char *what,
                        Fn &&fn)
{
    PageId p = first;
    std::uint64_t left = count;
    while (left > 0) {
        SENTINEL_ASSERT(findChunk(p), "%s of unmapped page %llu", what,
                        static_cast<unsigned long long>(p));
        Chunk &ch = chunks_[p >> kChunkBits];
        const std::uint64_t off = p & kChunkMask;
        const std::uint64_t n =
            std::min<std::uint64_t>(left, kChunkPages - off);
        fn(ch, p, ch.state.get() + off, n);
        p += n;
        left -= n;
    }
}

void
PageTable::mapRange(PageId first, std::uint64_t count, Tier tier)
{
    const std::uint8_t val = stateByte(tier, false);
    PageId p = first;
    std::uint64_t left = count;
    while (left > 0) {
        Chunk &ch = chunkFor(p);
        std::uint64_t off = p & kChunkMask;
        std::uint64_t in_chunk = std::min<std::uint64_t>(left,
                                                         kChunkPages - off);
        std::uint8_t *s = ch.state.get() + off;
        for (std::uint64_t i = 0; i < in_chunk; ++i)
            SENTINEL_ASSERT(s[i] == kStateUnmapped,
                            "page %llu already mapped",
                            static_cast<unsigned long long>(p + i));
        std::memset(s, val, in_chunk);
        ch.mapped += static_cast<std::uint32_t>(in_chunk);
        ch.tiers[tierIndex(tier)] += static_cast<std::uint32_t>(in_chunk);
        num_mapped_ += in_chunk;
        p += in_chunk;
        left -= in_chunk;
    }
}

TierPages
PageTable::unmapRange(PageId first, std::uint64_t count)
{
    TierPages freed{};
    forEachPiece(first, count, "unmap",
                 [&](Chunk &ch, PageId p, std::uint8_t *s, std::uint64_t n) {
        std::uint32_t tiers[kMaxTiers] = {};
        std::uint32_t inflight = 0;
        for (std::uint64_t i = 0; i < n; ++i) {
            SENTINEL_ASSERT(s[i] != kStateUnmapped,
                            "unmap of unmapped page %llu",
                            static_cast<unsigned long long>(p + i));
            ++tiers[s[i] & kStateTierMask];
            inflight += (s[i] & kStateFlightBit) ? 1 : 0;
        }
        std::memset(s, kStateUnmapped, n);
        ch.mapped -= static_cast<std::uint32_t>(n);
        for (unsigned t = 0; t < kMaxTiers; ++t) {
            ch.tiers[t] -= tiers[t];
            freed[t] += tiers[t];
        }
        ch.inflight -= inflight;
        num_inflight_ -= inflight;
        num_mapped_ -= n;
    });
    return freed;
}

bool
PageTable::isMapped(PageId page) const
{
    const Chunk *c = findChunk(page);
    return c && c->state[page & kChunkMask] != kStateUnmapped;
}

PageRunState
PageTable::runState(PageId first, std::uint64_t count) const
{
    SENTINEL_ASSERT(count > 0, "runState() of empty range");
    // One chunk at a time.  A chunk whose summary counters say
    // "every mapped page matches the run state" extends the run by the
    // whole sub-range without touching the state bytes (the caller
    // guarantees the range is mapped); mixed chunks fall back to a
    // linear byte scan.
    const Chunk *c0 = findChunk(first);
    SENTINEL_ASSERT(c0 && c0->state[first & kChunkMask] != kStateUnmapped,
                    "runState() over unmapped page %llu",
                    static_cast<unsigned long long>(first));
    const std::uint8_t s0 = c0->state[first & kChunkMask];
    PageRunState rs{ tierOf(s0), flightOf(s0), 1 };

    PageId p = first + 1;
    std::uint64_t left = count - 1;
    while (left > 0) {
        const Chunk *c = findChunk(p);
        SENTINEL_ASSERT(c, "runState() over unmapped page %llu",
                        static_cast<unsigned long long>(p));
        std::uint64_t off = p & kChunkMask;
        std::uint64_t in_chunk = std::min<std::uint64_t>(left,
                                                         kChunkPages - off);
        bool uniform = false;
        if (c->inflight == 0 && !flightOf(s0))
            uniform = c->tiers[s0 & kStateTierMask] == c->mapped;
        if (uniform) {
            rs.count += in_chunk;
        } else {
            // Word-wide run scan: eight state bytes per compare, with
            // countr_zero picking the first mismatching byte.  This
            // loop is the hottest in the simulator (every extent walk
            // funnels through it), so the byte loop only handles the
            // tail.
            const std::uint8_t *s = c->state.get() + off;
            const std::uint64_t pat = 0x0101010101010101ull * s0;
            std::uint64_t i = 0;
            while (i + 8 <= in_chunk) {
                std::uint64_t w;
                std::memcpy(&w, s + i, 8);
                if (w != pat) {
                    i += static_cast<std::uint64_t>(
                             std::countr_zero(w ^ pat)) /
                         8;
                    break;
                }
                i += 8;
            }
            while (i < in_chunk && s[i] == s0)
                ++i;
            rs.count += i;
            if (i < in_chunk) {
                SENTINEL_ASSERT(s[i] != kStateUnmapped,
                                "runState() over unmapped page %llu",
                                static_cast<unsigned long long>(p + i));
                return rs;
            }
        }
        p += in_chunk;
        left -= in_chunk;
    }
    return rs;
}

bool
PageTable::anyInFlight(PageId first, std::uint64_t count) const
{
    PageId p = first;
    std::uint64_t left = count;
    while (left > 0) {
        const Chunk *c = findChunk(p);
        SENTINEL_ASSERT(c, "anyInFlight() over unmapped page %llu",
                        static_cast<unsigned long long>(p));
        std::uint64_t off = p & kChunkMask;
        std::uint64_t in_chunk = std::min<std::uint64_t>(left,
                                                         kChunkPages - off);
        if (c->inflight > 0) {
            const std::uint8_t *s = c->state.get() + off;
            for (std::uint64_t i = 0; i < in_chunk; ++i) {
                SENTINEL_ASSERT(s[i] != kStateUnmapped,
                                "anyInFlight() over unmapped page %llu",
                                static_cast<unsigned long long>(p + i));
                if (s[i] & kStateFlightBit)
                    return true;
            }
        }
        p += in_chunk;
        left -= in_chunk;
    }
    return false;
}

void
PageTable::beginMigrationRun(PageId first, std::uint64_t count, Tier dest)
{
    SENTINEL_ASSERT(count > 0, "empty migration run");
    const unsigned d = tierIndex(dest);
    forEachPiece(first, count, "migration",
                 [&](Chunk &ch, PageId p, std::uint8_t *s, std::uint64_t n) {
        // Check the piece, then flag it: one branch-free pass each.
        // The unmapped marker carries the flight bit, so it fails too.
        bool bad = false;
        for (std::uint64_t i = 0; i < n; ++i)
            bad |= ((s[i] & kStateFlightBit) != 0) |
                   ((s[i] & kStateTierMask) == d);
        if (bad) {
            for (std::uint64_t i = 0; i < n; ++i) {
                SENTINEL_ASSERT(s[i] != kStateUnmapped,
                                "migration of unmapped page %llu",
                                static_cast<unsigned long long>(p + i));
                SENTINEL_ASSERT(!flightOf(s[i]),
                                "page %llu is already migrating",
                                static_cast<unsigned long long>(p + i));
                SENTINEL_ASSERT(tierOf(s[i]) != dest,
                                "migration of page %llu to its own tier",
                                static_cast<unsigned long long>(p + i));
            }
        }
        for (std::uint64_t i = 0; i < n; ++i)
            s[i] |= kStateFlightBit;
        ch.inflight += static_cast<std::uint32_t>(n);
        num_inflight_ += n;
    });
}

void
PageTable::commitMigrationRun(PageId first, std::uint64_t count, Tier src,
                              Tier dest)
{
    const std::uint8_t from = stateByte(src, true);
    const std::uint8_t to = stateByte(dest, false);
    forEachPiece(first, count, "commit",
                 [&](Chunk &ch, PageId p, std::uint8_t *s, std::uint64_t n) {
        bool bad = false;
        for (std::uint64_t i = 0; i < n; ++i)
            bad |= s[i] != from;
        if (bad) {
            for (std::uint64_t i = 0; i < n; ++i)
                SENTINEL_ASSERT(s[i] == from,
                                "commit of page %llu, which is not in "
                                "flight out of tier %u",
                                static_cast<unsigned long long>(p + i),
                                tierIndex(src));
        }
        std::memset(s, to, n);
        ch.tiers[tierIndex(src)] -= static_cast<std::uint32_t>(n);
        ch.tiers[tierIndex(dest)] += static_cast<std::uint32_t>(n);
        ch.inflight -= static_cast<std::uint32_t>(n);
        num_inflight_ -= n;
    });
}

void
PageTable::clear()
{
    num_mapped_ = 0;
    num_inflight_ = 0;
    // O(1) clear: bump the epoch; old chunks become stale and are
    // recycled (not re-allocated) on their next touch.  On the
    // (astronomically rare) wrap, drop the chunks so stale epochs
    // cannot alias the restarted counter.
    if (++epoch_ == 0) {
        chunks_.clear();
        epoch_ = 1;
    }
}

} // namespace sentinel::mem
