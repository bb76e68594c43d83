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

namespace {

/** Length of the prefix of s[0, n) whose bytes, masked by @p mask,
 *  equal @p v: eight state bytes per compare, countr_zero picking the
 *  first mismatch (every range check and run scan funnels through
 *  here). */
std::uint64_t
samePrefix(const std::uint8_t *s, std::uint64_t n, std::uint8_t v,
           std::uint8_t mask = 0xFF)
{
    const std::uint64_t pat = 0x0101010101010101ull * v;
    const std::uint64_t m = 0x0101010101010101ull * mask;
    std::uint64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        std::uint64_t w;
        std::memcpy(&w, s + i, 8);
        if ((w & m) != pat)
            return i + static_cast<std::uint64_t>(
                           std::countr_zero((w & m) ^ pat)) / 8;
    }
    while (i < n && (s[i] & mask) == v)
        ++i;
    return i;
}

} // namespace

template <typename Fn>
void
PageTable::forEachPiece(PageId first, std::uint64_t count, const char *what,
                        Fn &&fn)
{
    PageId p = first;
    std::uint64_t left = count;
    while (left > 0) {
        SENTINEL_ASSERT(!what || findChunk(p), "%s of unmapped page %llu",
                        what, static_cast<unsigned long long>(p));
        Chunk &ch = what ? chunks_[p >> kChunkBits] : chunkFor(p);
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
    forEachPiece(first, count, nullptr,
                 [&](Chunk &ch, PageId p, std::uint8_t *s, std::uint64_t n) {
        const std::uint64_t ok = samePrefix(s, n, kStateUnmapped);
        SENTINEL_ASSERT(ok == n, "page %llu already mapped",
                        static_cast<unsigned long long>(p + ok));
        std::memset(s, val, n);
        ch.mapped += static_cast<std::uint32_t>(n);
        ch.tiers[tierIndex(tier)] += static_cast<std::uint32_t>(n);
        num_mapped_ += n;
    });
}

TierPages
PageTable::unmapRange(PageId first, std::uint64_t count)
{
    TierPages freed{};
    forEachPiece(first, count, "unmap",
                 [&](Chunk &ch, PageId p, std::uint8_t *s, std::uint64_t n) {
        // Count the piece one run of equal state bytes at a time, then
        // apply: a piece holding an unmapped page is refused untouched.
        std::uint32_t tiers[kMaxTiers] = {};
        std::uint32_t inflight = 0;
        for (std::uint64_t i = 0; i < n;) {
            const std::uint8_t v = s[i];
            SENTINEL_ASSERT(v != kStateUnmapped,
                            "unmap of unmapped page %llu",
                            static_cast<unsigned long long>(p + i));
            const auto k =
                static_cast<std::uint32_t>(samePrefix(s + i, n - i, v));
            tiers[v & kStateTierMask] += k;
            inflight += flightOf(v) ? k : 0;
            i += k;
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
    // word-wide byte scan.
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
            const std::uint8_t *s = c->state.get() + off;
            const std::uint64_t i = samePrefix(s, in_chunk, s0);
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
            // The first flagged byte is a moving page, or an unmapped
            // one (the marker carries the flight bit too).
            const std::uint8_t *s = c->state.get() + off;
            const std::uint64_t i = samePrefix(s, in_chunk, 0,
                                               kStateFlightBit);
            if (i < in_chunk) {
                SENTINEL_ASSERT(s[i] != kStateUnmapped,
                                "anyInFlight() over unmapped page %llu",
                                static_cast<unsigned long long>(p + i));
                return true;
            }
        }
        p += in_chunk;
        left -= in_chunk;
    }
    return false;
}

void
PageTable::beginMigrationRun(PageId first, std::uint64_t count, Tier src,
                             Tier dest)
{
    SENTINEL_ASSERT(count > 0, "empty migration run");
    SENTINEL_ASSERT(src != dest, "migration of page %llu to its own tier",
                    static_cast<unsigned long long>(first));
    const std::uint8_t from = stateByte(src, false);
    forEachPiece(first, count, "migration",
                 [&](Chunk &ch, PageId p, std::uint8_t *s, std::uint64_t n) {
        // Check the piece, then flag it with one fill.  The unmapped
        // marker carries the flight bit, so it never matches.
        const std::uint64_t ok = samePrefix(s, n, from);
        const std::uint8_t v = ok < n ? s[ok] : from;
        const auto bad = static_cast<unsigned long long>(p + ok);
        SENTINEL_ASSERT(v != kStateUnmapped,
                        "migration of unmapped page %llu", bad);
        SENTINEL_ASSERT(!flightOf(v), "page %llu is already migrating", bad);
        SENTINEL_ASSERT(v == from,
                        "migration of page %llu, which is not resident in "
                        "tier %u", bad, tierIndex(src));
        std::memset(s, stateByte(src, true), n);
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
        const std::uint64_t ok = samePrefix(s, n, from);
        SENTINEL_ASSERT(ok == n,
                        "commit of page %llu, which is not in flight out "
                        "of tier %u",
                        static_cast<unsigned long long>(p + ok),
                        tierIndex(src));
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
