/**
 * @file
 * Negative tests for the runtime protocol validator: synthetic command
 * streams with deliberately injected violations (a fifth activate inside
 * the tFAW window, tRC/bank-state abuse, data-bus collisions, malformed
 * CAS shapes) and model-invariant abuses (premature early wakes, MSHR
 * leaks, duplicate or missing fragments, double-resolved or leaked
 * faults) must each be caught and attributed to the right rule —
 * proving the checker would actually fire if the scheduler or the CWF
 * plumbing regressed.  The streams feed each rule's per-component
 * state (ChannelCheck, LiveIds, FillCheck) directly, as the owning
 * component would.
 */

#include <gtest/gtest.h>

#include <optional>

#include "cache/mshr.hh"
#include "check/checker.hh"
#include "common/log.hh"
#include "dram/channel.hh"
#include "dram/dram_params.hh"
#include "fault/fault_model.hh"

using namespace hetsim;
using check::ChannelCheck;
using check::FillCheck;
using check::LiveIds;
using check::Mode;
using check::Rule;
using dram::DeviceParams;
using dram::DramCmd;
using dram::DramCoord;

namespace
{

/** Round-number device so expected ticks are easy to read: divider 4,
 *  tRC 20 cyc = 80 ticks, tRCD 4 cyc = 16 ticks, and so on. */
DeviceParams
toy()
{
    DeviceParams p = DeviceParams::ddr3_1600();
    p.name = "toy";
    p.policy = dram::PagePolicy::Open;
    p.clockDivider = 4;
    p.tRC = 20;
    p.tRCD = 4;
    p.tRL = 4;
    p.tWL = 3;
    p.tRP = 4;
    p.tRAS = 12;
    p.tRTRS = 2;
    p.tRRD = 0;
    p.tFAW = 0;
    p.tWTR = 4;
    p.tRTP = 3;
    p.tWR = 5;
    p.tCCD = 4;
    p.tBurst = 4;
    p.tREFI = 0;
    p.tRFC = 8;
    return p;
}

class ProtocolCheck : public ::testing::Test
{
  protected:
    void SetUp() override { check::arm(Mode::Collect); }
    void TearDown() override { check::disarm(); }

    /** The channel check under test, built from the first command's
     *  device (one rank), as a Channel builds its own while armed. */
    ChannelCheck &
    chan(const DeviceParams &p)
    {
        if (!chan_)
            chan_.emplace(p.name, p, 1);
        return *chan_;
    }

    void
    act(const DeviceParams &p, unsigned bank, Tick at)
    {
        DramCoord c;
        c.bank = static_cast<std::uint8_t>(bank);
        chan(p).command(DramCmd::Activate, at, c, 0, 0);
    }

    void
    read(const DeviceParams &p, unsigned bank, Tick at,
         Tick data_start = kTickNever)
    {
        DramCoord c;
        c.bank = static_cast<std::uint8_t>(bank);
        const Tick start =
            data_start == kTickNever ? at + p.ticks(p.tRL) : data_start;
        chan(p).command(DramCmd::Read, at, c, start,
                        start + p.ticks(p.tBurst));
    }

    void
    pre(const DeviceParams &p, unsigned bank, Tick at)
    {
        DramCoord c;
        c.bank = static_cast<std::uint8_t>(bank);
        chan(p).command(DramCmd::Precharge, at, c, 0, 0);
    }

    std::optional<ChannelCheck> chan_;
    LiveIds mshrs_{LiveIds::Kind::Mshr};
    LiveIds faults_{LiveIds::Kind::Fault};
    FillCheck fills_;
};

TEST_F(ProtocolCheck, FifthActivateInsideTfawWindowIsCaught)
{
    DeviceParams p = toy();
    p.tFAW = 16; // 64 ticks
    act(p, 0, 0);
    act(p, 1, 8);
    act(p, 2, 16);
    act(p, 3, 24);
    act(p, 4, 32); // window [0, 64) already holds four activates
    EXPECT_EQ(check::count(Rule::TFaw), 1u) << check::report();
    EXPECT_EQ(check::violations().size(), 1u) << check::report();
}

TEST_F(ProtocolCheck, FifthActivateAfterTfawWindowIsLegal)
{
    DeviceParams p = toy();
    p.tFAW = 16;
    act(p, 0, 0);
    act(p, 1, 8);
    act(p, 2, 16);
    act(p, 3, 24);
    act(p, 4, 64); // exactly four-activate-window ticks later: legal
    EXPECT_TRUE(check::violations().empty()) << check::report();
}

TEST_F(ProtocolCheck, ActivateBeforeTrcElapsesIsCaught)
{
    const DeviceParams p = toy();
    act(p, 0, 0);
    pre(p, 0, 48);  // tRAS = 48 ticks: legal
    act(p, 0, 64);  // tRP satisfied (48+16) but tRC wants >= 80
    EXPECT_EQ(check::count(Rule::TRc), 1u) << check::report();
    EXPECT_EQ(check::violations().size(), 1u) << check::report();
}

TEST_F(ProtocolCheck, ActivateToOpenBankIsCaught)
{
    const DeviceParams p = toy();
    act(p, 0, 0);
    act(p, 0, 80); // tRC satisfied, but the row was never precharged
    EXPECT_EQ(check::count(Rule::BankState), 1u) << check::report();
}

TEST_F(ProtocolCheck, OverlappingDataBurstsAreCaught)
{
    const DeviceParams p = toy();
    act(p, 0, 0);
    act(p, 1, 8);
    read(p, 0, 16); // data [32, 48)
    read(p, 1, 24); // data [40, 56): collides on the shared bus
    EXPECT_EQ(check::count(Rule::BusOverlap), 1u) << check::report();
    EXPECT_EQ(check::violations().size(), 1u) << check::report();
}

TEST_F(ProtocolCheck, MisshapenCasDataPhaseIsCaught)
{
    const DeviceParams p = toy();
    act(p, 0, 0);
    read(p, 0, 16, /*data_start=*/20); // tRL says data must start at 32
    EXPECT_EQ(check::count(Rule::TCas), 1u) << check::report();
}

TEST_F(ProtocolCheck, EarlyWakeInvariantsAreCaught)
{
    check::earlyWake(7, 100, /*fast_arrived=*/false, kTickNever, true);
    check::earlyWake(8, 100, true, /*fast_tick=*/120, true);
    check::earlyWake(9, 100, true, 90, /*parity_ok=*/false);
    EXPECT_EQ(check::count(Rule::EarlyWake), 3u) << check::report();
}

TEST_F(ProtocolCheck, MshrLeakIsCaughtAtFinalize)
{
    mshrs_.add(1, 10);
    mshrs_.add(2, 20);
    mshrs_.remove(1, 30);
    mshrs_.drain();
    EXPECT_EQ(check::count(Rule::MshrLeak), 1u) << check::report();
    // drain() empties the live set: a second pass adds nothing.
    mshrs_.drain();
    EXPECT_EQ(check::count(Rule::MshrLeak), 1u) << check::report();
}

TEST_F(ProtocolCheck, L1HitOnLineWithLiveMshrIsCaught)
{
    check::l1Hit(0x1000, 0, 100, /*mshr_live=*/false);
    EXPECT_EQ(check::count(Rule::L1HitMshr), 0u) << check::report();
    check::l1Hit(0x2040, 3, 110, /*mshr_live=*/true);
    ASSERT_EQ(check::count(Rule::L1HitMshr), 1u) << check::report();
    EXPECT_EQ(check::violations().back().where, "l1.3 line 0x2040");
}

TEST_F(ProtocolCheck, CompletionTickMustBeMaxOfFragments)
{
    fills_.issued(6, 0);
    fills_.fragment(6, true, 10);
    fills_.fragment(6, false, 30);
    fills_.complete(6, 10, 30, /*done=*/34);
    EXPECT_EQ(check::count(Rule::CwfCompletion), 1u)
        << check::report();
}

TEST_F(ProtocolCheck, DuplicateFastFragmentIsCaught)
{
    fills_.issued(7, 0);
    fills_.fragment(7, true, 10);
    fills_.fragment(7, true, 12);
    EXPECT_EQ(check::count(Rule::CwfFragment), 1u)
        << check::report();
}

TEST_F(ProtocolCheck, DuplicateOrMissingSlowFragmentIsCaught)
{
    // Each completed line takes exactly one slow fragment: a second one
    // is a duplicate...
    fills_.issued(8, 0);
    fills_.fragment(8, /*fast=*/true, 10);
    fills_.fragment(8, /*fast=*/false, 30);
    fills_.fragment(8, /*fast=*/false, 30);
    EXPECT_EQ(check::count(Rule::CwfFragment), 1u) << check::report();
    fills_.complete(8, 10, 30, 30);
    EXPECT_EQ(check::count(Rule::CwfCompletion), 0u)
        << check::report();
    // ...and completing a line without one is premature.
    fills_.issued(9, 0);
    fills_.fragment(9, /*fast=*/true, 10);
    fills_.complete(9, 10, /*slow=*/0, /*done=*/10);
    EXPECT_EQ(check::count(Rule::CwfCompletion), 1u)
        << check::report();
    EXPECT_EQ(check::count(Rule::CwfFragment), 1u) << check::report();
    EXPECT_EQ(check::violations().size(), 2u) << check::report();
}

TEST_F(ProtocolCheck, DoubleFaultResolveIsCaught)
{
    faults_.add(1, 10);
    faults_.remove(1, 20);
    EXPECT_EQ(check::count(Rule::Fault), 0u) << check::report();
    faults_.remove(1, 30);
    EXPECT_EQ(check::count(Rule::Fault), 1u) << check::report();
}

TEST_F(ProtocolCheck, ResolveOfUninjectedFaultIsCaught)
{
    faults_.add(1, 10);
    faults_.remove(2, 20);
    EXPECT_EQ(check::count(Rule::Fault), 1u) << check::report();
}

TEST_F(ProtocolCheck, UnresolvedFaultIsCaughtAtFinalize)
{
    faults_.add(1, 10);
    faults_.add(2, 20);
    faults_.remove(1, 30);
    EXPECT_EQ(check::count(Rule::Fault), 0u) << check::report();
    faults_.drain();
    EXPECT_EQ(check::count(Rule::Fault), 1u) << check::report();
    // drain() empties the live set: a second pass adds nothing.
    faults_.drain();
    EXPECT_EQ(check::count(Rule::Fault), 1u) << check::report();
}

TEST_F(ProtocolCheck, ReportCarriesRuleTickAndPlace)
{
    DeviceParams p = toy();
    p.tFAW = 16;
    act(p, 0, 0);
    act(p, 1, 8);
    act(p, 2, 16);
    act(p, 3, 24);
    act(p, 4, 32);
    const std::string report = check::report();
    EXPECT_NE(report.find("tFAW"), std::string::npos) << report;
    EXPECT_NE(report.find("tick 32"), std::string::npos) << report;
    EXPECT_NE(report.find("channel toy rank 0 bank 4"), std::string::npos)
        << report;
}

TEST_F(ProtocolCheck, AbortModePanicsOnFirstViolation)
{
    check::arm(Mode::Abort);
    setLogThrowOnError(true);
    EXPECT_THROW(
        check::earlyWake(1, 5, /*fast_arrived=*/false, kTickNever, true),
        SimError);
    setLogThrowOnError(false);
    check::arm(Mode::Collect); // restore fixture expectations
}

TEST_F(ProtocolCheck, DisabledHooksRecordNothing)
{
    // A component built while disarmed carries no check: resolving a
    // fault it never injected goes unrecorded...
    check::disarm();
    fault::FaultModel unchecked(fault::FaultParams{}, 1);
    unchecked.resolve(5, 10);
    EXPECT_TRUE(check::violations().empty()) << check::report();
    // ...while one built armed records it.
    check::arm(Mode::Collect);
    fault::FaultModel checked(fault::FaultParams{}, 1);
    checked.resolve(5, 10);
    EXPECT_EQ(check::count(Rule::Fault), 1u) << check::report();
}

TEST_F(ProtocolCheck, FreshChannelAfterDestroyedOneStartsClean)
{
    // A channel's command history dies with it: a new channel, whatever
    // address it lands at, may issue its first ACT at tick 0 although
    // an earlier channel already ran past that tick.
    const DeviceParams dev = DeviceParams::ddr3_1600();
    auto drain = [&dev](dram::Channel &chan, Tick t) {
        dram::MemRequest req;
        req.id = 1;
        req.lineAddr = 0x1000;
        req.coord = DramCoord{0, 0, 2, 7, 0};
        chan.enqueue(req, t);
        while (!chan.idle()) {
            chan.tick(t);
            t += 1;
        }
        return t;
    };
    for (int round = 0; round < 2; ++round) {
        dram::Channel chan("reused", dev, 1);
        chan.setCallback([](dram::MemRequest &) {});
        chan.enableAudit(true);
        EXPECT_GT(drain(chan, 0), 0u);
        ASSERT_FALSE(chan.audit().empty());
        EXPECT_EQ(chan.audit().front().cmd, DramCmd::Activate);
        EXPECT_EQ(chan.audit().front().at, 0u);
    }
    EXPECT_TRUE(check::violations().empty()) << check::report();
}

TEST_F(ProtocolCheck, FreshMshrFileReusesIdsCleanly)
{
    // An MSHR file destroyed with a live entry takes that entry with it:
    // a new file hands out the same id without a duplicate-allocation
    // violation.
    std::uint64_t first = 0;
    {
        cache::MshrFile mshrs(4);
        first = mshrs.allocate(0x40, 0)->id;
    }
    cache::MshrFile mshrs(4);
    const cache::MshrEntry *entry = mshrs.allocate(0x40, 0);
    EXPECT_EQ(entry->id, first);
    EXPECT_TRUE(check::violations().empty()) << check::report();
    mshrs.release(*mshrs.find(0x40));
    mshrs.checkDrained();
    EXPECT_TRUE(check::violations().empty()) << check::report();
}

} // namespace
