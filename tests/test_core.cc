/**
 * @file
 * Core-model tests with a scripted op source and mock memory: dispatch
 * and retire width, ROB capacity stalls, load park/wake, dependent-load
 * serialisation (pointer chasing, including a retired producer whose
 * ROB slot was reused), blocked-access retry, and IPC windowing.
 */

#include <gtest/gtest.h>

#include <deque>

#include "cache/hierarchy.hh"
#include "common/log.hh"
#include "core/line_layout.hh"
#include "cpu/core.hh"

using namespace hetsim;
using cache::Hierarchy;
using cpu::Core;
using cwf::LatencySplit;
using cwf::MemoryBackend;
using workloads::MicroOp;

namespace
{

/** Backend with test-controlled completion (same idea as in
 *  test_hierarchy, trimmed to what the core tests need). */
class ManualBackend : public MemoryBackend
{
  public:
    Callbacks cb;
    std::deque<std::uint64_t> pendingIds;
    bool acceptFills = true;

    void setCallbacks(Callbacks callbacks) override
    {
        cb = std::move(callbacks);
    }
    unsigned plannedCriticalWord(Addr, unsigned, bool) override
    {
        return cwf::kNoFastWord;
    }
    bool canAcceptFill(Addr) const override { return acceptFills; }
    void
    requestFill(const FillRequest &request, Tick) override
    {
        pendingIds.push_back(request.mshrId);
    }
    bool canAcceptWriteback(Addr) const override { return true; }
    void requestWriteback(Addr, Tick) override {}
    void tick(Tick) override {}
    bool idle() const override { return pendingIds.empty(); }
    void resetStats(Tick) override {}
    double dramPowerMw(Tick) const override { return 0; }
    double busUtilization(Tick) const override { return 0; }
    LatencySplit latencySplit() const override { return {}; }
    double rowHitRate() const override { return 0; }
    const char *name() const override { return "manual"; }

    void
    completeOldest(Tick now)
    {
        ASSERT_FALSE(pendingIds.empty());
        const std::uint64_t id = pendingIds.front();
        pendingIds.pop_front();
        cb.lineCompleted(id, now);
    }
};

MicroOp
alu()
{
    return MicroOp{};
}

MicroOp
load(Addr addr, bool dependent = false)
{
    MicroOp op;
    op.isMem = true;
    op.addr = addr;
    op.dependsOnPrev = dependent;
    return op;
}

MicroOp
store(Addr addr)
{
    MicroOp op;
    op.isMem = true;
    op.isWrite = true;
    op.addr = addr;
    return op;
}

class CoreTest : public ::testing::Test
{
  protected:
    CoreTest()
    {
        Hierarchy::Params hp;
        hp.cores = 1;
        hp.prefetch.enabled = false;
        hier = std::make_unique<Hierarchy>(hp, backend);
        core = std::make_unique<Core>(
            0, Core::Params{}, [this] { return nextOp(); }, *hier);
        hier->setWakeFn([this](std::uint8_t, std::uint16_t slot, Tick t) {
            core->wake(slot, t);
        });
    }

    MicroOp
    nextOp()
    {
        sourceCalls += 1;
        if (script.empty())
            return alu();
        const MicroOp op = script.front();
        script.pop_front();
        return op;
    }

    void
    run(Tick from, Tick to)
    {
        for (Tick t = from; t <= to; ++t)
            core->tick(t);
    }

    ManualBackend backend;
    std::unique_ptr<Hierarchy> hier;
    std::unique_ptr<Core> core;
    std::deque<MicroOp> script;
    std::uint64_t sourceCalls = 0;
};

TEST_F(CoreTest, RetiresWidthAluOpsPerCycle)
{
    // Pure ALU stream: steady state retires 4 per cycle.
    run(0, 99);
    EXPECT_NEAR(static_cast<double>(core->retired()), 4.0 * 99, 8.0);
    EXPECT_NEAR(core->ipc(100), 4.0, 0.1);
}

TEST_F(CoreTest, LoadMissBlocksRetirementUntilWake)
{
    script.push_back(load(0x1000));
    run(0, 20);
    const std::uint64_t retired_before = core->retired();
    run(21, 60);
    // The load sits at (or near) the ROB head; with a 64-entry ROB the
    // core fills up and stops retiring.
    EXPECT_LE(core->retired() - retired_before,
              64u) << "ROB must bound in-flight work";
    ASSERT_EQ(backend.pendingIds.size(), 1u);
    backend.completeOldest(61);
    run(61, 100);
    EXPECT_GT(core->retired(), retired_before + 64);
}

TEST_F(CoreTest, RobCapacityBoundsOutstandingWork)
{
    // A miss followed by ALU ops: at most robSize-1 ALU ops can enter
    // behind the parked load.
    script.push_back(load(0x1000));
    run(0, 200);
    // Retired: the few that retired before the load reached the head.
    // Dispatch stalls must have occurred.
    EXPECT_GT(core->dispatchStalls(), 0u);
    backend.completeOldest(201);
    run(201, 260);
    EXPECT_GT(core->ipc(260), 0.0);
}

TEST_F(CoreTest, DependentLoadWaitsForPreviousData)
{
    script.push_back(load(0x1000));
    script.push_back(load(0x2000, /*dependent=*/true));
    run(0, 50);
    // Only the first load can have issued.
    EXPECT_EQ(backend.pendingIds.size(), 1u);
    backend.completeOldest(51);
    run(51, 100);
    EXPECT_EQ(backend.pendingIds.size(), 1u) << "second load now issued";
    backend.completeOldest(101);
    run(101, 120);
    EXPECT_TRUE(backend.pendingIds.empty());
}

TEST_F(CoreTest, DependentLoadIgnoresRetiredLoadsReusedSlot)
{
    // Warm the line, then stream: the load L hits in L1 and retires long
    // before the store S, dispatched one ROB wrap later, reuses its slot.
    // S is still in flight (L1 store latency) when the dependent load D
    // behind it dispatches; D's producer L has retired, so D must not
    // stall.
    script.push_back(load(0x1000));
    run(0, 10);
    backend.completeOldest(11);
    run(11, 30);
    const std::uint64_t stalls_before = core->dispatchStalls();
    script.push_back(load(0x1000));
    for (unsigned i = 0; i + 1 < Core::Params{}.robSize; ++i)
        script.push_back(alu());
    script.push_back(store(0x1000));
    script.push_back(load(0x2000, /*dependent=*/true));
    run(31, 60);
    EXPECT_TRUE(script.empty());
    EXPECT_EQ(backend.pendingIds.size(), 1u) << "D's fill issued";
    EXPECT_EQ(core->dispatchStalls(), stalls_before);
}

TEST_F(CoreTest, IndependentLoadsOverlap)
{
    script.push_back(load(0x1000));
    script.push_back(load(0x2000));
    script.push_back(load(0x3000));
    run(0, 50);
    EXPECT_EQ(backend.pendingIds.size(), 3u)
        << "independent misses exploit MLP";
}

TEST_F(CoreTest, StoreMissDoesNotBlockRetirement)
{
    script.push_back(store(0x1000));
    run(0, 50);
    EXPECT_EQ(backend.pendingIds.size(), 1u);
    // Store retired without waiting for the fill.
    EXPECT_GT(core->retired(), 100u);
    backend.completeOldest(51);
}

TEST_F(CoreTest, BlockedAccessIsRetriedUntilAccepted)
{
    backend.acceptFills = false;
    script.push_back(load(0x1000));
    run(0, 20);
    EXPECT_TRUE(backend.pendingIds.empty());
    EXPECT_GT(core->dispatchStalls(), 0u);
    backend.acceptFills = true;
    run(21, 40);
    EXPECT_EQ(backend.pendingIds.size(), 1u) << "op retried, not lost";
    backend.completeOldest(41);
    run(41, 80);
}

TEST_F(CoreTest, FunctionSourceIsCalledOncePerDispatchedOp)
{
    // A blocked op is retried from the core's own copy, not re-drawn.
    backend.acceptFills = false;
    script.push_back(load(0x1000));
    run(0, 20);
    EXPECT_EQ(sourceCalls, 1u);
    // An op pushed mid-run is the next one drawn after the retry.
    script.push_back(store(0x2000));
    backend.acceptFills = true;
    run(21, 21);
    EXPECT_EQ(sourceCalls, 4u) << "the retried load, then 3 fresh ops";
    EXPECT_EQ(backend.pendingIds.size(), 2u) << "load and store fills";
    // The parked load holds the ROB head: the source is called once per
    // ROB entry and never while the ROB is full.
    run(22, 60);
    EXPECT_EQ(sourceCalls, Core::Params{}.robSize);
    EXPECT_EQ(core->retired(), 0u);
}

TEST_F(CoreTest, L1HitLatencyIsShort)
{
    script.push_back(load(0x1000));
    run(0, 10);
    backend.completeOldest(11);
    run(11, 30);
    const auto retired_before = core->retired();
    script.push_back(load(0x1000)); // now an L1 hit
    run(31, 40);
    EXPECT_GT(core->retired(), retired_before);
    EXPECT_TRUE(backend.pendingIds.empty());
}

TEST_F(CoreTest, RobFullBucketCountsWhenTheHeadOutlastsTheWindow)
{
    // rob_full needs robSize <= width * (head latency): here a 20-tick
    // L1 hit holds the head while a 4-wide core fills 8 slots in 2 ticks.
    Hierarchy::Params hp;
    hp.cores = 1;
    hp.prefetch.enabled = false;
    hp.l1Latency = 20;
    Core::Params cp;
    cp.robSize = 8;
    core.reset();
    hier = std::make_unique<Hierarchy>(hp, backend);
    core = std::make_unique<Core>(
        0, cp, [this] { return nextOp(); }, *hier);
    hier->setWakeFn([this](std::uint8_t, std::uint16_t slot, Tick t) {
        core->wake(slot, t);
    });

    script.push_back(load(0x1000));
    run(0, 10);
    backend.completeOldest(11);
    run(11, 60);
    core->resetStats(61);
    for (int i = 0; i < 64; ++i)
        script.push_back(load(0x1000 + 8 * (i % 8))); // L1 hits
    run(61, 260);

    EXPECT_GT(core->cpiCycles(Core::CpiBucket::RobFull), 0u);
    std::uint64_t sum = 0;
    for (unsigned b = 0; b < Core::kCpiBuckets; ++b)
        sum += core->cpiCycles(static_cast<Core::CpiBucket>(b));
    EXPECT_EQ(sum, 200u) << "the five buckets tile the window";
    EXPECT_TRUE(backend.pendingIds.empty());
}

TEST_F(CoreTest, IpcWindowResets)
{
    run(0, 99);
    core->resetStats(100);
    EXPECT_EQ(core->retiredInWindow(), 0u);
    run(100, 149);
    EXPECT_NEAR(core->ipc(150), 4.0, 0.2);
}

TEST_F(CoreTest, WakeOfWrongSlotPanics)
{
    setLogThrowOnError(true);
    EXPECT_THROW(core->wake(0, 5), SimError);
    setLogThrowOnError(false);
}

} // namespace
