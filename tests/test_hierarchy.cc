/**
 * @file
 * Cache-hierarchy tests against a scripted mock memory backend: miss
 * path, MSHR merging, early wakeup on the critical word, parity-blocked
 * wakeup, second-access bookkeeping, inclusive eviction/writeback flow,
 * prefetch issue, and the criticality histograms.
 */

#include <gtest/gtest.h>

#include <bit>
#include <deque>

#include "cache/hierarchy.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "core/line_layout.hh"

using namespace hetsim;
using cache::Hierarchy;
using cwf::LatencySplit;
using cwf::MemoryBackend;

namespace
{

/** Backend whose fills complete only when the test says so. */
class MockBackend : public MemoryBackend
{
  public:
    struct Fill
    {
        FillRequest req;
        Tick at;
    };

    Callbacks cb;
    std::deque<Fill> fills;
    std::vector<Addr> writebacks;
    unsigned plannedWord = 0;           ///< returned stored word
    bool fragmented = false;            ///< true -> two-part fills
    bool acceptFills = true;
    bool acceptWritebacks = true;

    void setCallbacks(Callbacks callbacks) override
    {
        cb = std::move(callbacks);
    }

    unsigned
    plannedCriticalWord(Addr, unsigned, bool) override
    {
        return fragmented ? plannedWord : cwf::kNoFastWord;
    }

    bool canAcceptFill(Addr) const override { return acceptFills; }

    void
    requestFill(const FillRequest &request, Tick now) override
    {
        fills.push_back(Fill{request, now});
    }

    bool canAcceptWriteback(Addr) const override
    {
        return acceptWritebacks;
    }

    void
    requestWriteback(Addr line_addr, Tick) override
    {
        writebacks.push_back(line_addr);
    }

    void tick(Tick) override {}
    bool idle() const override { return fills.empty(); }
    void resetStats(Tick) override {}
    double dramPowerMw(Tick) const override { return 0; }
    double busUtilization(Tick) const override { return 0; }
    LatencySplit latencySplit() const override { return {}; }
    double rowHitRate() const override { return 0; }
    const char *name() const override { return "mock"; }

    /** Deliver the fast fragment of the oldest fill. */
    void
    deliverCritical(Tick now, bool parity_ok = true)
    {
        cb.criticalArrived(fills.front().req.mshrId, now, parity_ok);
    }

    /** Complete the oldest fill entirely and drop it. */
    void
    deliverLine(Tick now)
    {
        cb.lineCompleted(fills.front().req.mshrId, now);
        fills.pop_front();
    }
};

struct Wake
{
    std::uint8_t core;
    std::uint16_t slot;
    Tick when;
};

class HierarchyTest : public ::testing::Test
{
  protected:
    HierarchyTest()
    {
        Hierarchy::Params hp;
        hp.cores = 2;
        hp.prefetch.enabled = false; // enabled per-test where needed
        hier = std::make_unique<Hierarchy>(hp, backend);
        hier->setWakeFn(
            [this](std::uint8_t c, std::uint16_t s, Tick t) {
                wakes.push_back(Wake{c, s, t});
            });
    }

    MockBackend backend;
    std::unique_ptr<Hierarchy> hier;
    std::vector<Wake> wakes;
};

TEST_F(HierarchyTest, MissAllocatesMshrAndRequestsFill)
{
    const auto res = hier->load(0, 1, 0x1000, 10);
    EXPECT_EQ(res.outcome, Hierarchy::Outcome::Pending);
    ASSERT_EQ(backend.fills.size(), 1u);
    EXPECT_EQ(backend.fills[0].req.lineAddr, 0x1000u);
    EXPECT_EQ(backend.fills[0].req.requestedWord, 0u);
    EXPECT_EQ(hier->mshrs().inUse(), 1u);
    EXPECT_EQ(hier->stats().demandMisses.value(), 1u);
}

TEST_F(HierarchyTest, CompletionWakesFillsAndHits)
{
    hier->load(0, 1, 0x1000, 10);
    backend.deliverLine(100);
    ASSERT_EQ(wakes.size(), 1u);
    EXPECT_EQ(wakes[0].slot, 1u);
    EXPECT_EQ(wakes[0].when, 100u);
    EXPECT_EQ(hier->mshrs().inUse(), 0u);
    // Line now resident: L1 hit.
    const auto res = hier->load(0, 2, 0x1000, 200);
    EXPECT_EQ(res.outcome, Hierarchy::Outcome::Ready);
    EXPECT_EQ(res.level, HitLevel::L1);
}

TEST_F(HierarchyTest, CrossCoreL2Hit)
{
    hier->load(0, 1, 0x1000, 10);
    backend.deliverLine(100);
    // Core 1 misses its L1 but hits the shared L2.
    const auto res = hier->load(1, 3, 0x1000, 200);
    EXPECT_EQ(res.outcome, Hierarchy::Outcome::Ready);
    EXPECT_EQ(res.level, HitLevel::L2);
}

TEST_F(HierarchyTest, SecondaryMissMergesIntoMshr)
{
    hier->load(0, 1, 0x1000, 10);
    const auto res = hier->load(1, 2, 0x1008, 20); // word 1, same line
    EXPECT_EQ(res.outcome, Hierarchy::Outcome::Pending);
    EXPECT_EQ(backend.fills.size(), 1u) << "no duplicate fill";
    EXPECT_EQ(hier->stats().mshrJoins.value(), 1u);
    EXPECT_EQ(hier->stats().secondAccesses.value(), 1u);
    backend.deliverLine(100);
    EXPECT_EQ(wakes.size(), 2u);
}

TEST_F(HierarchyTest, LookupCountersForL1HitL2HitAndJoin)
{
    hier->load(0, 1, 0x1000, 10);  // L1 and L2 miss: allocates
    hier->load(1, 2, 0x1008, 20);  // joins the in-flight line
    backend.deliverLine(100);      // installs in L2 and core 0's L1
    hier->load(0, 3, 0x1000, 200); // L1 hit
    hier->load(1, 4, 0x1000, 210); // core 1: L1 miss, L2 hit
    // A join resolves at the MSHR: it is neither an L1 hit nor a miss.
    EXPECT_EQ(hier->l1(0).hits().value(), 1u);
    EXPECT_EQ(hier->l1(0).misses().value(), 1u);
    EXPECT_EQ(hier->l1(1).hits().value(), 0u);
    EXPECT_EQ(hier->l1(1).misses().value(), 1u);
    EXPECT_EQ(hier->l2().hits().value(), 1u);
    EXPECT_EQ(hier->l2().misses().value(), 1u);
    EXPECT_EQ(hier->stats().mshrJoins.value(), 1u);
    EXPECT_EQ(hier->stats().loads.value(), 4u);
    EXPECT_EQ(hier->stats().demandMisses.value(), 1u);
}

TEST_F(HierarchyTest, LookupDigestIsPinned)
{
    // 1M seeded loads and stores from four cores, with the prefetcher
    // on and two-part fills delivered 40 ticks after their request.
    // Per core, half the accesses hit an 8 KB hot window (L1 hits), a
    // quarter a 2 MB warm window (L2 hits) and a quarter a 256 MB cold
    // one (misses, dirty L2 evictions and writebacks).  Any change to
    // which level serves an access, the lookup-latency histogram or the
    // writeback order moves the digest.
    Hierarchy::Params hp;
    hp.cores = 4;
    backend.fragmented = true;
    backend.plannedWord = 0;
    Hierarchy h(hp, backend);
    h.setWakeFn([](std::uint8_t, std::uint16_t, Tick) {});
    Rng rng(777);
    Tick now = 0;
    std::uint64_t outcomes = 0xcbf29ce484222325ULL;
    const auto mix = [](std::uint64_t &d, std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            d ^= (v >> (8 * b)) & 0xff;
            d *= 0x100000001b3ULL;
        }
    };
    for (std::uint64_t i = 0; i < 1000000; ++i) {
        now += 1;
        while (!backend.fills.empty() &&
               backend.fills.front().at + 40 <= now) {
            backend.deliverCritical(now);
            backend.deliverLine(now);
        }
        h.tick(now);
        const std::uint64_t r = rng.next();
        const auto core = static_cast<std::uint8_t>(r & 3);
        const unsigned band = (r >> 2) & 3;
        const std::uint64_t window = band < 2    ? (8 << 10)
                                     : band == 2 ? (2 << 20)
                                                 : (256 << 20);
        const Addr addr = (Addr{core} << 32) +
                          (Addr{band < 2 ? 0 : band} << 28) +
                          (rng.below(window) & ~Addr{kWordBytes - 1});
        const Hierarchy::AccessResult res =
            ((r >> 4) % 10) < 3
                ? h.store(core, addr, now)
                : h.load(core, static_cast<std::uint16_t>(i & 63), addr,
                         now);
        mix(outcomes, static_cast<unsigned>(res.outcome) |
                          static_cast<unsigned>(res.level) << 2);
        mix(outcomes, res.readyAt);
    }
    std::uint64_t d = outcomes;
    for (unsigned c = 0; c < hp.cores; ++c) {
        mix(d, h.l1(c).hits().value());
        mix(d, h.l1(c).misses().value());
    }
    mix(d, h.l2().hits().value());
    mix(d, h.l2().misses().value());
    const Histogram &lookup = h.stats().lookupLatencyHist;
    for (unsigned b = 0; b < lookup.buckets(); ++b)
        mix(d, lookup.bucket(b));
    mix(d, lookup.total());
    mix(d, std::bit_cast<std::uint64_t>(lookup.sum()));
    mix(d, backend.writebacks.size());
    for (const Addr wb : backend.writebacks)
        mix(d, wb);
    EXPECT_GT(h.stats().writebacks.value(), 0u);
    EXPECT_EQ(d, 0x3af9710e951dcc34ULL);
}

TEST_F(HierarchyTest, EarlyWakeOnMatchingCriticalWord)
{
    backend.fragmented = true;
    backend.plannedWord = 0;
    hier->load(0, 1, 0x1000, 10); // word 0 = stored critical word
    backend.deliverCritical(50);
    ASSERT_EQ(wakes.size(), 1u) << "woken by the fast fragment";
    EXPECT_EQ(wakes[0].when, 50u);
    EXPECT_EQ(hier->stats().earlyWakes.value(), 1u);
    EXPECT_EQ(hier->stats().servedByFast.value(), 1u);
    backend.deliverLine(120);
    EXPECT_EQ(wakes.size(), 1u) << "no double wake";
    EXPECT_EQ(hier->mshrs().inUse(), 0u);
    EXPECT_DOUBLE_EQ(hier->stats().fastLead.mean(), 70.0);
    EXPECT_DOUBLE_EQ(hier->stats().criticalWordLatency.mean(), 40.0);
}

TEST_F(HierarchyTest, NonMatchingWordWaitsForFullLine)
{
    backend.fragmented = true;
    backend.plannedWord = 0;
    hier->load(0, 1, 0x1008, 10); // word 1, stored word is 0
    backend.deliverCritical(50);
    EXPECT_TRUE(wakes.empty());
    EXPECT_EQ(hier->stats().servedByFast.value(), 0u);
    backend.deliverLine(120);
    ASSERT_EQ(wakes.size(), 1u);
    EXPECT_EQ(wakes[0].when, 120u);
    EXPECT_DOUBLE_EQ(hier->stats().criticalWordLatency.mean(), 110.0);
}

TEST_F(HierarchyTest, ParityErrorBlocksEarlyWake)
{
    backend.fragmented = true;
    backend.plannedWord = 0;
    hier->load(0, 1, 0x1000, 10);
    backend.deliverCritical(50, /*parity_ok=*/false);
    EXPECT_TRUE(wakes.empty()) << "parity failure defers to the full line";
    EXPECT_EQ(hier->stats().parityBlockedWakes.value(), 1u);
    backend.deliverLine(120);
    ASSERT_EQ(wakes.size(), 1u);
    EXPECT_EQ(wakes[0].when, 120u);
}

TEST_F(HierarchyTest, LateJoinerToArrivedCriticalWordIsReady)
{
    backend.fragmented = true;
    backend.plannedWord = 0;
    hier->load(0, 1, 0x1000, 10);
    backend.deliverCritical(50);
    // A second load to the *arrived* critical word is served from the
    // MSHR buffer without waiting.
    const auto res = hier->load(1, 7, 0x1000, 60);
    EXPECT_EQ(res.outcome, Hierarchy::Outcome::Ready);
    backend.deliverLine(120);
}

TEST_F(HierarchyTest, MshrFullBlocks)
{
    Hierarchy::Params hp;
    hp.cores = 1;
    hp.mshrs = 2;
    hp.prefetch.enabled = false;
    Hierarchy small(hp, backend);
    small.setWakeFn([](std::uint8_t, std::uint16_t, Tick) {});
    EXPECT_EQ(small.load(0, 0, 0 << kLineShift, 0).outcome,
              Hierarchy::Outcome::Pending);
    EXPECT_EQ(small.load(0, 1, 1 << kLineShift, 0).outcome,
              Hierarchy::Outcome::Pending);
    EXPECT_EQ(small.load(0, 2, 2 << kLineShift, 0).outcome,
              Hierarchy::Outcome::Blocked);
    EXPECT_EQ(small.mshrs().fullStalls().value(), 1u);
}

TEST_F(HierarchyTest, BackendRefusalBlocks)
{
    backend.acceptFills = false;
    EXPECT_EQ(hier->load(0, 1, 0x1000, 0).outcome,
              Hierarchy::Outcome::Blocked);
    EXPECT_EQ(hier->stats().blockedAccesses.value(), 1u);
    EXPECT_EQ(hier->mshrs().inUse(), 0u) << "no MSHR leak on block";
}

TEST_F(HierarchyTest, StoreMissIsNonBlockingAndFillsDirty)
{
    const auto res = hier->store(0, 0x1000, 10);
    EXPECT_EQ(res.outcome, Hierarchy::Outcome::Ready);
    ASSERT_EQ(backend.fills.size(), 1u);
    EXPECT_EQ(hier->stats().storeMisses.value(), 1u);
    backend.deliverLine(100);
    EXPECT_TRUE(wakes.empty()) << "stores never park in the ROB";

    // Evict the dirty line via set pressure.  Same-L2-set lines are
    // 512 KB apart (and inevitably share the L1 set, so the dirty L1
    // copy first folds into L2 and bumps its LRU); pushing 12 more
    // lines through the set eventually evicts 0x1000 from L2 as a
    // dirty writeback.
    const std::uint64_t l2_way_stride =
        4ULL * 1024 * 1024 / 8; // 512 KB between same-set L2 lines
    for (int i = 1; i <= 12; ++i) {
        hier->load(0, static_cast<std::uint16_t>(i),
                   0x1000 + i * l2_way_stride, 200 + i);
        backend.deliverLine(300 + i);
    }
    hier->tick(601);
    ASSERT_GE(backend.writebacks.size(), 1u);
    EXPECT_EQ(backend.writebacks[0], 0x1000u);
    EXPECT_GE(hier->stats().writebacks.value(), 1u);
}

TEST_F(HierarchyTest, WritebackQueueRespectsBackpressure)
{
    backend.acceptWritebacks = false;
    // Dirty a line then force its L2 eviction.
    hier->store(0, 0x1000, 0);
    backend.deliverLine(10);
    const std::uint64_t stride = 4ULL * 1024 * 1024 / 8;
    for (int i = 1; i <= 12; ++i) {
        hier->load(0, static_cast<std::uint16_t>(i), 0x1000 + i * stride,
                   20 + i);
        backend.deliverLine(30 + i);
    }
    hier->tick(100);
    EXPECT_TRUE(backend.writebacks.empty());
    EXPECT_EQ(hier->stats().writebacks.value(), 0u);
    backend.acceptWritebacks = true;
    hier->tick(101);
    EXPECT_GE(backend.writebacks.size(), 1u);
    EXPECT_EQ(backend.writebacks[0], 0x1000u);
    EXPECT_EQ(hier->stats().writebacks.value(), backend.writebacks.size());
    // The queue drained completely: a further tick sends nothing new.
    const std::size_t drained = backend.writebacks.size();
    hier->tick(102);
    EXPECT_EQ(backend.writebacks.size(), drained);
    EXPECT_EQ(hier->mshrs().inUse(), 0u);
}

TEST_F(HierarchyTest, CriticalWordHistogramTracksMissWords)
{
    hier->load(0, 1, 0x1000 + 3 * kWordBytes, 0); // word 3
    backend.deliverLine(10);
    hier->load(0, 2, 0x2000 + 3 * kWordBytes, 20);
    backend.deliverLine(30);
    hier->load(0, 3, 0x3000, 40); // word 0
    backend.deliverLine(50);
    EXPECT_EQ(hier->stats().criticalWordHist[3].value(), 2u);
    EXPECT_EQ(hier->stats().criticalWordHist[0].value(), 1u);
    EXPECT_NEAR(hier->criticalWordFraction(3), 2.0 / 3.0, 1e-9);
}

TEST_F(HierarchyTest, PerLineCriticalityTracking)
{
    Hierarchy::Params hp;
    hp.cores = 1;
    hp.prefetch.enabled = false;
    hp.trackPerLineCriticality = true;
    Hierarchy tracked(hp, backend);
    tracked.setWakeFn([](std::uint8_t, std::uint16_t, Tick) {});
    tracked.load(0, 1, 0x1000 + 2 * kWordBytes, 0);
    backend.deliverLine(10);
    const auto &map = tracked.lineCriticality();
    ASSERT_EQ(map.count(0x1000), 1u);
    EXPECT_EQ(map.at(0x1000)[2], 1u);
}

TEST_F(HierarchyTest, PrefetcherIssuesIntoMshrs)
{
    Hierarchy::Params hp;
    hp.cores = 1;
    Hierarchy pf(hp, backend);
    pf.setWakeFn([](std::uint8_t, std::uint16_t, Tick) {});
    // Three sequential demand misses train the stride detector.
    std::uint16_t slot = 0;
    for (Addr line = 0; line < 3; ++line) {
        pf.load(0, slot++, line << kLineShift, line * 10);
        backend.deliverLine(line * 10 + 5);
    }
    EXPECT_GT(pf.stats().prefetchIssued.value(), 0u);
    // Prefetch fills are tagged as such.
    bool saw_prefetch = false;
    while (!backend.fills.empty()) {
        saw_prefetch |= backend.fills.front().req.isPrefetch;
        backend.deliverLine(1000);
    }
    EXPECT_TRUE(saw_prefetch);
}

TEST_F(HierarchyTest, SecondAccessGapRecorded)
{
    hier->load(0, 1, 0x1000, 10);
    hier->load(0, 2, 0x1008, 40); // different word, 30 ticks later
    backend.deliverLine(100);
    EXPECT_DOUBLE_EQ(hier->stats().secondAccessGap.mean(), 30.0);
    EXPECT_EQ(hier->stats().secondBeforeComplete.value(), 1u);
}

} // namespace
