/**
 * @file
 * Set-associative cache tests: hit/miss behaviour, LRU replacement,
 * dirty-victim eviction, invalidation, and address reconstruction.
 */

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "common/log.hh"
#include "common/rng.hh"

using namespace hetsim;
using cache::Cache;

namespace
{

Cache::Params
tiny(unsigned sets, unsigned ways)
{
    Cache::Params p;
    p.name = "tiny";
    p.sizeBytes = static_cast<std::uint64_t>(sets) * ways * kLineBytes;
    p.ways = ways;
    return p;
}

Addr
addrFor(unsigned set, unsigned tag, unsigned sets)
{
    return (static_cast<Addr>(tag) * sets + set) << kLineShift;
}

TEST(Cache, MissThenHitAfterFill)
{
    Cache c(tiny(4, 2));
    const Addr a = addrFor(0, 1, 4);
    EXPECT_FALSE(c.access(a, false));
    EXPECT_EQ(c.misses().value(), 1u);
    const auto ev = c.fill(a, false);
    EXPECT_FALSE(ev.valid);
    EXPECT_TRUE(c.access(a, false));
    EXPECT_EQ(c.hits().value(), 1u);
}

TEST(Cache, ProbeHasNoLruSideEffect)
{
    Cache c(tiny(1, 2));
    const Addr a = addrFor(0, 1, 1), b = addrFor(0, 2, 1),
               d = addrFor(0, 3, 1);
    c.fill(a, false);
    c.fill(b, false);
    // Probe a (no LRU bump), then fill a third line: a must be evicted
    // because the probe did not refresh it.
    EXPECT_TRUE(c.probe(a));
    const auto ev = c.fill(d, false);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, a);
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    Cache c(tiny(1, 2));
    const Addr a = addrFor(0, 1, 1), b = addrFor(0, 2, 1),
               d = addrFor(0, 3, 1);
    c.fill(a, false);
    c.fill(b, false);
    c.access(a, false); // a is now MRU
    const auto ev = c.fill(d, false);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, b);
    EXPECT_TRUE(c.probe(a));
    EXPECT_FALSE(c.probe(b));
}

TEST(Cache, EvictionReportsDirtyState)
{
    Cache c(tiny(1, 1));
    const Addr a = addrFor(0, 1, 1), b = addrFor(0, 2, 1);
    c.fill(a, false);
    c.access(a, /*mark_dirty=*/true);
    const auto ev = c.fill(b, false);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, a);
    EXPECT_TRUE(ev.dirty);
}

TEST(Cache, FillWithDirtyFlag)
{
    Cache c(tiny(1, 1));
    const Addr a = addrFor(0, 1, 1), b = addrFor(0, 2, 1);
    c.fill(a, /*dirty=*/true);
    const auto ev = c.fill(b, false);
    ASSERT_TRUE(ev.valid);
    EXPECT_TRUE(ev.dirty);
}

TEST(Cache, VictimAddressReconstruction)
{
    Cache c(tiny(8, 2));
    for (unsigned tag = 1; tag <= 3; ++tag) {
        const Addr a = addrFor(5, tag, 8);
        if (!c.probe(a)) {
            const auto ev = c.fill(a, false);
            if (ev.valid) {
                EXPECT_EQ(ev.lineAddr, addrFor(5, tag - 2, 8));
            }
        }
    }
}

TEST(Cache, InvalidateReturnsDirtyAndRemoves)
{
    Cache c(tiny(2, 2));
    const Addr a = addrFor(1, 4, 2);
    c.fill(a, false);
    c.access(a, true);
    bool present = false;
    EXPECT_TRUE(c.invalidate(a, &present));
    EXPECT_TRUE(present);
    EXPECT_FALSE(c.probe(a));
    EXPECT_FALSE(c.invalidate(a, &present));
    EXPECT_FALSE(present);
}

TEST(Cache, SetsDoNotInterfere)
{
    Cache c(tiny(4, 1));
    // Same tag, different sets: all coexist in a 1-way cache.
    for (unsigned set = 0; set < 4; ++set)
        c.fill(addrFor(set, 7, 4), false);
    for (unsigned set = 0; set < 4; ++set)
        EXPECT_TRUE(c.probe(addrFor(set, 7, 4)));
}

TEST(Cache, DoubleFillPanics)
{
    setLogThrowOnError(true);
    Cache c(tiny(2, 2));
    const Addr a = addrFor(0, 1, 2);
    c.fill(a, false);
    EXPECT_THROW(c.fill(a, false), SimError);
    setLogThrowOnError(false);
}

TEST(Cache, Table1GeometriesConstruct)
{
    Cache l1(Cache::Params{"l1", 32 * 1024, 2});
    EXPECT_EQ(l1.sets(), 32u * 1024 / (64 * 2));
    Cache l2(Cache::Params{"l2", 4 * 1024 * 1024, 8});
    EXPECT_EQ(l2.sets(), 4u * 1024 * 1024 / (64 * 8));
}

TEST(CacheDeathTest, SetCountMustBePowerOfTwo)
{
    // 3 sets of 2 ways: indexing by mask and shift cannot reach set 2.
    EXPECT_EXIT(Cache(Cache::Params{"l1.odd", 3 * 2 * kLineBytes, 2}),
                ::testing::ExitedWithCode(1),
                "cache 'l1.odd' \\(384 B, 2 ways\\) has 3 sets; the set "
                "count must be a power of two");
    // 48 KB / 4-way is 192 sets.
    EXPECT_EXIT(Cache(Cache::Params{"l2", 48 * 1024, 4}),
                ::testing::ExitedWithCode(1), "has 192 sets");
}

TEST(Cache, WorkingSetLargerThanCacheThrashes)
{
    Cache c(tiny(4, 2)); // 8 lines
    for (Addr line = 0; line < 32; ++line) {
        const Addr a = line << kLineShift;
        if (!c.access(a, false))
            c.fill(a, false);
    }
    // Second pass over 32 lines also misses everywhere (LRU thrash).
    const auto misses_before = c.misses().value();
    for (Addr line = 0; line < 32; ++line) {
        const Addr a = line << kLineShift;
        if (!c.access(a, false))
            c.fill(a, false);
    }
    EXPECT_EQ(c.misses().value() - misses_before, 32u);
}

/** FNV-1a over 64-bit words. */
struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    mix(std::uint64_t v)
    {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }

    /** Every set's lines in LRU order with their dirty bits. */
    void
    mixState(const Cache &c)
    {
        for (unsigned set = 0; set < c.sets(); ++set) {
            const auto lines = c.setContents(set);
            mix(lines.size());
            for (const Cache::Resident &r : lines)
                mix(r.lineAddr | unsigned{r.dirty});
        }
    }
};

/**
 * Digest of @p ops seeded hit / fill / invalidate operations on a cache
 * of @p size_bytes and @p ways: every hit outcome, every Eviction and
 * every invalidation result, plus the whole tag / LRU / dirty state
 * every 100k operations and at the end.  Half the draws come from a
 * window of half the cache's lines (mostly hits), half from a window
 * of four times its lines (misses and evictions); invalidations free
 * ways that later fills reuse.
 */
std::uint64_t
cacheStateDigest(std::uint64_t size_bytes, unsigned ways,
                 std::uint64_t ops)
{
    Cache c(Cache::Params{"digest", size_bytes, ways});
    const std::uint64_t lines = size_bytes / kLineBytes;
    Rng rng(2024 + ways);
    Fnv f;
    for (std::uint64_t i = 0; i < ops; ++i) {
        const std::uint64_t r = rng.next();
        const std::uint64_t window = (r & 1) ? lines / 2 : lines * 4;
        // High tag bits too: some lines sit above 2^40.
        const Addr high = (r & 2) ? (Addr{0x5a} << 40) : 0;
        const Addr a = high | (rng.below(window) << kLineShift);
        const unsigned kind = static_cast<unsigned>((r >> 8) % 100);
        const bool dirty = (r >> 16) & 1;
        if (kind < 55) {
            const bool hit = c.access(a, dirty);
            f.mix(hit);
            if (!hit) {
                const Cache::Eviction ev = c.fill(a, (r >> 17) & 1);
                f.mix(ev.valid | unsigned{ev.dirty} << 1);
                f.mix(ev.lineAddr);
            }
        } else if (kind < 70) {
            f.mix(c.probe(a));
        } else if (kind < 82) {
            bool present = false;
            const bool was_dirty = c.invalidate(a, &present);
            f.mix(unsigned{was_dirty} | unsigned{present} << 1);
        } else if (c.probe(a)) {
            f.mix(c.hit(a, dirty));
        } else {
            const Cache::Eviction ev = c.fill(a, dirty);
            f.mix(ev.valid | unsigned{ev.dirty} << 1);
            f.mix(ev.lineAddr);
        }
        if (i % 100000 == 99999)
            f.mixState(c);
    }
    f.mixState(c);
    f.mix(c.hits().value());
    f.mix(c.misses().value());
    return f.h;
}

TEST(Cache, StateDigestsArePinned)
{
    // Table 1's L1 (32 KB / 2-way) and L2 (4 MB / 8-way).  Any change to
    // hit/miss outcomes, victim choice, LRU order or dirty tracking
    // moves these digests.
    EXPECT_EQ(cacheStateDigest(32 * 1024, 2, 1000000),
              0x225728fd3fe912faULL);
    EXPECT_EQ(cacheStateDigest(4 * 1024 * 1024, 8, 1000000),
              0xda1e7680d18d5369ULL);
}

} // namespace
