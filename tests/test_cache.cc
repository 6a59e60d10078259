/**
 * @file
 * Set-associative cache tests: hit/miss behaviour, LRU replacement,
 * dirty-victim eviction, invalidation, and address reconstruction.
 */

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "common/log.hh"

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

} // namespace
