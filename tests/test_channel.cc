/**
 * @file
 * Channel controller functional tests: end-to-end read/write timing for
 * each device type, row-hit vs row-conflict service, FR-FCFS ordering
 * (row hits first, the oldest request per bank steers preparation),
 * write-to-read turnaround, write-drain watermarks, write-queue
 * forwarding, refresh, power-down and queue admission.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "dram/channel.hh"

using namespace hetsim;
using dram::AddrBusArbiter;
using dram::Channel;
using dram::DeviceParams;
using dram::DramCmd;
using dram::DramCoord;
using dram::MemRequest;
using dram::SchedulerPolicy;

namespace
{

MemRequest
makeReq(Addr line, AccessType type, DramCoord coord,
        std::uint64_t cookie = 0)
{
    MemRequest r;
    r.id = cookie + 1;
    r.lineAddr = line;
    r.type = type;
    r.coord = coord;
    r.cookie = cookie;
    return r;
}

/** Tick the channel from its current point up to (and including) @p end. */
void
run(Channel &chan, Tick begin, Tick end)
{
    for (Tick t = begin; t <= end; ++t)
        chan.tick(t);
}

class Ddr3Channel : public ::testing::Test
{
  protected:
    Ddr3Channel() : chan("test", DeviceParams::ddr3_1600(), 1)
    {
        chan.setCallback([this](MemRequest &req) {
            completed.push_back(req);
        });
    }

    Channel chan;
    std::vector<MemRequest> completed;
};

TEST_F(Ddr3Channel, SingleReadTiming)
{
    const auto &p = chan.params();
    chan.enqueue(makeReq(0, AccessType::Read, {0, 0, 0, 5, 0}, 1), 0);
    run(chan, 0, 2000);
    ASSERT_EQ(completed.size(), 1u);
    // ACT at cycle 0, READ when tRCD elapses, data tRL later for tBurst.
    const Tick expect = p.ticks(p.tRCD) + p.ticks(p.tRL) +
                        p.ticks(p.tBurst);
    EXPECT_EQ(completed[0].complete, expect);
    EXPECT_EQ(completed[0].cookie, 1u);
    EXPECT_EQ(chan.stats().demandReads.value(), 1u);
    EXPECT_EQ(chan.stats().rowMisses.value(), 1u);
}

TEST_F(Ddr3Channel, RowHitIsFasterThanRowMiss)
{
    const auto &p = chan.params();
    chan.enqueue(makeReq(0, AccessType::Read, {0, 0, 0, 5, 0}, 1), 0);
    chan.enqueue(makeReq(64, AccessType::Read, {0, 0, 0, 5, 1}, 2), 0);
    run(chan, 0, 4000);
    ASSERT_EQ(completed.size(), 2u);
    EXPECT_EQ(chan.stats().rowHits.value(), 1u);
    EXPECT_EQ(chan.stats().rowMisses.value(), 1u);
    // The second read needs no ACT: it follows tCCD behind the first.
    const Tick gap = completed[1].complete - completed[0].complete;
    EXPECT_EQ(gap, p.ticks(p.tCCD));
}

TEST_F(Ddr3Channel, RowConflictPaysPrechargeActivate)
{
    const auto &p = chan.params();
    chan.enqueue(makeReq(0, AccessType::Read, {0, 0, 0, 5, 0}, 1), 0);
    run(chan, 0, 2000);
    const Tick t0 = completed[0].complete;
    // Different row, same bank: PRE + ACT + READ.
    chan.enqueue(makeReq(1 << 20, AccessType::Read, {0, 0, 0, 9, 0}, 2),
                 t0);
    run(chan, t0 + 1, t0 + 4000);
    ASSERT_EQ(completed.size(), 2u);
    const Tick service = completed[1].complete - completed[1].enqueue;
    // Must include at least tRP + tRCD + tRL + tBurst.
    EXPECT_GE(service,
              p.ticks(p.tRP + p.tRCD + p.tRL + p.tBurst));
    EXPECT_EQ(chan.stats().rowMisses.value(), 2u);
}

TEST_F(Ddr3Channel, RowHitIssuesBeforeOlderRowConflict)
{
    chan.enqueue(makeReq(0, AccessType::Read, {0, 0, 0, 5, 0}, 1), 0);
    Tick t = 0;
    while (completed.empty())
        chan.tick(t++);
    completed.clear();
    // Row 5 is still open: the older request conflicts with it, the
    // younger one hits it.  First-ready issues the hit's column first.
    chan.enqueue(makeReq(1 << 20, AccessType::Read, {0, 0, 0, 9, 0}, 2), t);
    chan.enqueue(makeReq(64, AccessType::Read, {0, 0, 0, 5, 1}, 3), t);
    run(chan, t, t + 4000);
    ASSERT_EQ(completed.size(), 2u);
    EXPECT_EQ(completed[0].cookie, 3u) << "row hit completes first";
    EXPECT_EQ(completed[1].cookie, 2u);
    EXPECT_EQ(chan.stats().rowHits.value(), 1u);
    EXPECT_EQ(chan.stats().rowMisses.value(), 2u);
}

TEST_F(Ddr3Channel, OldestRequestPerBankSteersPreparation)
{
    // Open row 3 in bank 1, then queue a train of row hits to it ahead of
    // two requests to bank 0 for different rows.  The train keeps the
    // data bus busy past tRAS after bank 0's ACTIVATE, so in the idle
    // cycles between hits only the oldest bank-0 request may steer the
    // bank: the younger one must not precharge the row the older one
    // opened and is still waiting to read.
    chan.enableAudit(true);
    chan.enqueue(makeReq(0, AccessType::Read, {0, 0, 1, 3, 0}, 100), 0);
    Tick t = 0;
    while (completed.empty())
        chan.tick(t++);
    completed.clear();
    chan.clearAudit();

    const unsigned hits = 12;
    for (unsigned i = 0; i < hits; ++i) {
        chan.enqueue(makeReq(64 * (i + 1), AccessType::Read,
                             {0, 0, 1, 3, i + 1}, i),
                     t);
    }
    chan.enqueue(makeReq(1 << 20, AccessType::Read, {0, 0, 0, 9, 0}, 50), t);
    chan.enqueue(makeReq(2 << 20, AccessType::Read, {0, 0, 0, 7, 0}, 51), t);
    run(chan, t, t + 10000);
    ASSERT_EQ(completed.size(), hits + 2);
    const auto &p = chan.params();

    std::vector<std::pair<DramCmd, std::uint32_t>> bank0;
    Tick act9 = 0, read9 = 0;
    for (const auto &ev : chan.audit()) {
        if (ev.bank != 0 || ev.cmd == DramCmd::Refresh)
            continue;
        bank0.emplace_back(ev.cmd, ev.row);
        if (ev.cmd == DramCmd::Activate && ev.row == 9)
            act9 = ev.at;
        if (ev.cmd == DramCmd::Read && ev.row == 9)
            read9 = ev.at;
    }
    // The scenario is only meaningful if row 9's read waited past tRAS.
    EXPECT_GT(read9, act9 + p.ticks(p.tRAS));
    // A precharge is logged with the coordinates of the request that
    // steered it, so row 7's request closes row 9 only after its read.
    const std::vector<std::pair<DramCmd, std::uint32_t>> expect = {
        {DramCmd::Activate, 9}, {DramCmd::Read, 9},
        {DramCmd::Precharge, 7}, {DramCmd::Activate, 7},
        {DramCmd::Read, 7}};
    EXPECT_EQ(bank0, expect);
    EXPECT_EQ(completed[hits].cookie, 50u);
    EXPECT_EQ(completed[hits + 1].cookie, 51u);
    EXPECT_EQ(chan.stats().rowHits.value(), hits);
}

TEST_F(Ddr3Channel, LatencySplitSeparatesQueueFromService)
{
    // Saturate one bank so later requests visibly queue.
    for (int i = 0; i < 8; ++i) {
        chan.enqueue(makeReq(static_cast<Addr>(i) << 20, AccessType::Read,
                             {0, 0, 0, static_cast<std::uint32_t>(i * 3),
                              0},
                             static_cast<std::uint64_t>(i)),
                     0);
    }
    run(chan, 0, 30000);
    ASSERT_EQ(completed.size(), 8u);
    EXPECT_GT(chan.stats().queueLatency.mean(), 0.0);
    EXPECT_GT(chan.stats().serviceLatency.mean(), 0.0);
    EXPECT_NEAR(chan.stats().totalLatency.mean(),
                chan.stats().queueLatency.mean() +
                    chan.stats().serviceLatency.mean(),
                1e-6);
}

TEST_F(Ddr3Channel, WriteToReadTurnaroundEnforced)
{
    const auto &p = chan.params();
    chan.enqueue(makeReq(0, AccessType::Write, {0, 0, 0, 5, 0}), 0);
    // No reads pending: drain mode services the write immediately.
    run(chan, 0, 400);
    EXPECT_EQ(chan.stats().writes.value(), 1u);
    // Now a read to the same rank, different line.
    chan.enqueue(makeReq(128, AccessType::Read, {0, 0, 1, 5, 0}, 9), 400);
    run(chan, 401, 4000);
    ASSERT_EQ(completed.size(), 1u);
    // The read's column command must sit at least tWTR after the write
    // data: with write data ending around tWL+tBurst, total read latency
    // exceeds the unloaded value.
    EXPECT_GT(completed[0].complete - completed[0].enqueue,
              p.ticks(p.tRCD + p.tRL + p.tBurst) - 1);
}

TEST_F(Ddr3Channel, ForwardsReadFromQueuedWrite)
{
    chan.enqueue(makeReq(0, AccessType::Write, {0, 0, 0, 5, 0}), 0);
    // Keep read traffic flowing so drain mode doesn't instantly service
    // the write; enqueue the matching read in the same cycle.
    chan.enqueue(makeReq(0, AccessType::Read, {0, 0, 0, 5, 0}, 7), 0);
    run(chan, 0, 400);
    ASSERT_GE(completed.size(), 1u);
    EXPECT_EQ(completed[0].cookie, 7u);
    EXPECT_EQ(chan.stats().forwardedFromWriteQ.value(), 1u);
    // Forwarded data returns in one memory cycle.
    EXPECT_EQ(completed[0].complete - completed[0].enqueue,
              chan.params().clockDivider);
}

TEST_F(Ddr3Channel, WriteDrainHonorsWatermarks)
{
    SchedulerPolicy pol;
    // Fill writes to the high watermark with reads present; writes must
    // eventually drain even though reads keep priority initially.
    for (unsigned i = 0; i < pol.drainHighWatermark; ++i) {
        chan.enqueue(makeReq(static_cast<Addr>(i) * 64 + (1 << 22),
                             AccessType::Write,
                             {0, 0, static_cast<std::uint8_t>(i % 8),
                              static_cast<std::uint32_t>(i), 2}),
                     0);
    }
    chan.enqueue(makeReq(0, AccessType::Read, {0, 0, 0, 5, 0}, 1), 0);
    run(chan, 0, 60000);
    EXPECT_EQ(completed.size(), 1u);
    // Drained at least down to the low watermark.
    EXPECT_LE(chan.pendingWrites(), pol.drainLowWatermark);
    EXPECT_GE(chan.stats().writes.value(),
              pol.drainHighWatermark - pol.drainLowWatermark);
}

TEST_F(Ddr3Channel, QueueAdmissionCaps)
{
    SchedulerPolicy pol;
    for (unsigned i = 0; i < pol.readQueueCap; ++i) {
        ASSERT_TRUE(chan.canAccept(AccessType::Read));
        // Use distinct banks/rows; no ticks, so nothing issues.
        chan.enqueue(makeReq(static_cast<Addr>(i) * 64, AccessType::Read,
                             {0, 0, static_cast<std::uint8_t>(i % 8),
                              static_cast<std::uint32_t>(i / 8), 0},
                             i),
                     0);
    }
    EXPECT_FALSE(chan.canAccept(AccessType::Read));
    EXPECT_TRUE(chan.canAccept(AccessType::Write));
}

TEST_F(Ddr3Channel, RefreshHappensAtTrefi)
{
    // Run long enough to cover a few tREFI periods with no traffic.
    const auto &p = chan.params();
    run(chan, 0, p.ticks(p.tREFI) * 3);
    EXPECT_GE(chan.stats().refreshes.value(), 2u);
}

TEST_F(Ddr3Channel, PowerDownWhenIdle)
{
    chan.enqueue(makeReq(0, AccessType::Read, {0, 0, 0, 5, 0}, 1), 0);
    const auto &p = chan.params();
    run(chan, 0, p.ticks(p.powerDownIdle) + 4000);
    EXPECT_EQ(completed.size(), 1u);
    EXPECT_GE(chan.stats().powerDownEntries.value(), 1u);
}

TEST_F(Ddr3Channel, PowerDownWakeupStillServesRequests)
{
    chan.enqueue(makeReq(0, AccessType::Read, {0, 0, 0, 5, 0}, 1), 0);
    run(chan, 0, 60000);
    ASSERT_GE(chan.stats().powerDownEntries.value(), 1u);
    completed.clear();
    chan.enqueue(makeReq(64, AccessType::Read, {0, 0, 0, 6, 0}, 2), 60001);
    run(chan, 60001, 70000);
    ASSERT_EQ(completed.size(), 1u);
    // Wakeup adds tXP over the unloaded path but the request completes.
    EXPECT_GT(completed[0].complete, completed[0].enqueue);
}

TEST_F(Ddr3Channel, DemandPrioritisedOverYoungPrefetch)
{
    // A demand and a young prefetch to different banks, both enqueued in
    // the same cycle: the demand's column command must issue first even
    // though the prefetch was enqueued first.
    MemRequest pf = makeReq(0, AccessType::Prefetch, {0, 0, 0, 5, 0}, 1);
    MemRequest dm = makeReq(64, AccessType::Read, {0, 0, 1, 5, 0}, 2);
    chan.enqueue(pf, 0);
    chan.enqueue(dm, 0);
    run(chan, 0, 4000);
    ASSERT_EQ(completed.size(), 2u);
    EXPECT_EQ(completed[0].cookie, 2u) << "demand completes first";
    EXPECT_EQ(chan.stats().demandReads.value(), 1u);
    EXPECT_EQ(chan.stats().prefetchReads.value(), 1u);
}

TEST_F(Ddr3Channel, AgedPrefetchIsPromoted)
{
    SchedulerPolicy pol;
    // Enqueue a prefetch and let it age beyond the promotion threshold
    // with no competition; it must be serviced.
    chan.enqueue(makeReq(0, AccessType::Prefetch, {0, 0, 0, 5, 0}, 1), 0);
    run(chan, 0, pol.prefetchPromoteAge + 4000);
    EXPECT_EQ(chan.stats().prefetchReads.value(), 1u);
}

TEST_F(Ddr3Channel, StatsWindowResetClearsCountersAndUtilization)
{
    chan.enqueue(makeReq(0, AccessType::Read, {0, 0, 0, 5, 0}, 1), 0);
    run(chan, 0, 2000);
    EXPECT_GT(chan.stats().demandReads.value(), 0u);
    EXPECT_GT(chan.busUtilization(2000), 0.0);
    chan.resetStats(2001);
    EXPECT_EQ(chan.stats().demandReads.value(), 0u);
    EXPECT_DOUBLE_EQ(chan.busUtilization(4000), 0.0);
}

TEST_F(Ddr3Channel, MultiRankTrtsGapOnBusSwitch)
{
    // Two ranks, back-to-back row hits in each: the data bus must keep a
    // tRTRS gap when switching ranks.
    Channel two("two", DeviceParams::ddr3_1600(), 2);
    two.enableAudit(true);
    std::vector<MemRequest> done;
    two.setCallback([&](MemRequest &r) { done.push_back(r); });
    two.enqueue(makeReq(0, AccessType::Read, {0, 0, 0, 5, 0}, 1), 0);
    two.enqueue(makeReq(64, AccessType::Read, {0, 1, 0, 5, 0}, 2), 0);
    for (Tick t = 0; t <= 4000; ++t)
        two.tick(t);
    ASSERT_EQ(done.size(), 2u);
    // Find the two column commands in the audit and check the data gap.
    std::vector<Channel::AuditEvent> cols;
    for (const auto &ev : two.audit()) {
        if (ev.cmd == DramCmd::Read)
            cols.push_back(ev);
    }
    ASSERT_EQ(cols.size(), 2u);
    const auto &p = two.params();
    EXPECT_GE(cols[1].dataStart,
              cols[0].dataEnd + p.ticks(p.tRTRS));
}

// ------------------------------------------------------------ RLDRAM3

class RldramChannel : public ::testing::Test
{
  protected:
    RldramChannel() : chan("rl", DeviceParams::rldram3(), 4)
    {
        chan.setCallback(
            [this](MemRequest &req) { completed.push_back(req); });
    }

    Channel chan;
    std::vector<MemRequest> completed;
};

TEST_F(RldramChannel, CompoundReadTiming)
{
    const auto &p = chan.params();
    chan.enqueue(makeReq(0, AccessType::Read, {0, 0, 0, 5, 0}, 1), 0);
    run(chan, 0, 400);
    ASSERT_EQ(completed.size(), 1u);
    // Single command: data tRL later, no tRCD.
    EXPECT_EQ(completed[0].complete, p.ticks(p.tRL) + p.ticks(p.tBurst));
}

TEST_F(RldramChannel, MuchLowerUnloadedLatencyThanDdr3)
{
    const auto d3 = DeviceParams::ddr3_1600();
    const auto &rl = chan.params();
    const Tick rl_lat = rl.ticks(rl.tRL + rl.tBurst);
    const Tick d3_lat = d3.ticks(d3.tRCD + d3.tRL + d3.tBurst);
    EXPECT_LT(rl_lat * 2, d3_lat);
}

TEST_F(RldramChannel, BackToBackSameBankSpacedByTrc)
{
    const auto &p = chan.params();
    chan.enqueue(makeReq(0, AccessType::Read, {0, 0, 0, 1, 0}, 1), 0);
    chan.enqueue(makeReq(64, AccessType::Read, {0, 0, 0, 2, 0}, 2), 0);
    run(chan, 0, 1000);
    ASSERT_EQ(completed.size(), 2u);
    EXPECT_GE(completed[1].columnIssue - completed[0].columnIssue,
              p.ticks(p.tRC));
}

TEST_F(RldramChannel, DifferentBanksPipelineOnTheBus)
{
    const auto &p = chan.params();
    for (std::uint8_t b = 0; b < 4; ++b) {
        chan.enqueue(makeReq(b * 64ULL, AccessType::Read,
                             {0, 0, b, 1, 0}, b),
                     0);
    }
    run(chan, 0, 1000);
    ASSERT_EQ(completed.size(), 4u);
    // Bank parallelism: consecutive completions gap at the burst rate,
    // not at tRC.
    for (int i = 1; i < 4; ++i) {
        EXPECT_LE(completed[i].complete - completed[i - 1].complete,
                  p.ticks(p.tBurst) + p.clockDivider);
    }
}

TEST_F(RldramChannel, NoRefreshAndNoPowerDownModeled)
{
    run(chan, 0, 200000);
    EXPECT_EQ(chan.stats().refreshes.value(), 0u);
    EXPECT_EQ(chan.stats().powerDownEntries.value(), 0u);
}

// --------------------------------------------------- shared addr bus

TEST(SharedAddrBus, OneCommandSlotPerCycle)
{
    AddrBusArbiter arb(4);
    EXPECT_TRUE(arb.tryReserve(0));
    EXPECT_FALSE(arb.tryReserve(0));
    EXPECT_FALSE(arb.tryReserve(3));
    EXPECT_TRUE(arb.tryReserve(4));
    EXPECT_EQ(arb.grants(), 2u);
    EXPECT_EQ(arb.conflicts(), 2u);
}

TEST(SharedAddrBus, TwoChannelsContendAndBothComplete)
{
    AddrBusArbiter arb(4);
    auto dev = DeviceParams::rldram3();
    Channel a("a", dev, 1, SchedulerPolicy{}, &arb);
    Channel b("b", dev, 1, SchedulerPolicy{}, &arb);
    std::vector<MemRequest> done_a, done_b;
    a.setCallback([&](MemRequest &r) { done_a.push_back(r); });
    b.setCallback([&](MemRequest &r) { done_b.push_back(r); });
    for (int i = 0; i < 8; ++i) {
        a.enqueue(makeReq(i * 64, AccessType::Read,
                          {0, 0, static_cast<std::uint8_t>(i % 16), 1, 0},
                          i),
                  0);
        b.enqueue(makeReq(i * 64, AccessType::Read,
                          {0, 0, static_cast<std::uint8_t>(i % 16), 1, 0},
                          i),
                  0);
    }
    for (Tick t = 0; t <= 4000; ++t) {
        a.tick(t);
        b.tick(t);
    }
    EXPECT_EQ(done_a.size(), 8u);
    EXPECT_EQ(done_b.size(), 8u);
    EXPECT_GT(arb.conflicts(), 0u);
}

} // namespace
