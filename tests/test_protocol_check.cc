/**
 * @file
 * Negative tests for the runtime protocol validator: synthetic command
 * streams with deliberately injected violations (a fifth activate inside
 * the tFAW window, tRC/bank-state abuse, data-bus collisions, malformed
 * CAS shapes) and model-invariant abuses (premature early wakes, MSHR
 * leaks, duplicate or missing fragments, double-resolved or leaked
 * faults) must each be caught and attributed to the right rule —
 * proving the checker would actually fire if the scheduler or the CWF
 * plumbing regressed.
 */

#include <gtest/gtest.h>

#include "check/checker.hh"
#include "common/log.hh"
#include "dram/channel.hh"
#include "dram/dram_params.hh"

using namespace hetsim;
using check::Checker;
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
    void SetUp() override { checker().enable(Mode::Collect); }
    void TearDown() override { checker().disable(); }

    static Checker &checker() { return Checker::instance(); }

    // Feed the checker directly, as Channel::recordAudit would.
    void
    act(const DeviceParams &p, unsigned bank, Tick at)
    {
        DramCoord c;
        c.bank = static_cast<std::uint8_t>(bank);
        checker().dramCommand(&chan_, p.name, p, DramCmd::Activate, at, c,
                              0, 0);
    }

    void
    read(const DeviceParams &p, unsigned bank, Tick at,
         Tick data_start = kTickNever)
    {
        DramCoord c;
        c.bank = static_cast<std::uint8_t>(bank);
        const Tick start =
            data_start == kTickNever ? at + p.ticks(p.tRL) : data_start;
        checker().dramCommand(&chan_, p.name, p, DramCmd::Read, at, c,
                              start, start + p.ticks(p.tBurst));
    }

    void
    pre(const DeviceParams &p, unsigned bank, Tick at)
    {
        DramCoord c;
        c.bank = static_cast<std::uint8_t>(bank);
        checker().dramCommand(&chan_, p.name, p, DramCmd::Precharge, at, c,
                              0, 0);
    }

    int chan_ = 0; ///< unique per-fixture channel identity
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
    EXPECT_EQ(checker().count(Rule::TFaw), 1u) << checker().report();
    EXPECT_EQ(checker().violations().size(), 1u) << checker().report();
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
    EXPECT_TRUE(checker().violations().empty()) << checker().report();
}

TEST_F(ProtocolCheck, ActivateBeforeTrcElapsesIsCaught)
{
    const DeviceParams p = toy();
    act(p, 0, 0);
    pre(p, 0, 48);  // tRAS = 48 ticks: legal
    act(p, 0, 64);  // tRP satisfied (48+16) but tRC wants >= 80
    EXPECT_EQ(checker().count(Rule::TRc), 1u) << checker().report();
    EXPECT_EQ(checker().violations().size(), 1u) << checker().report();
}

TEST_F(ProtocolCheck, ActivateToOpenBankIsCaught)
{
    const DeviceParams p = toy();
    act(p, 0, 0);
    act(p, 0, 80); // tRC satisfied, but the row was never precharged
    EXPECT_EQ(checker().count(Rule::BankState), 1u) << checker().report();
}

TEST_F(ProtocolCheck, OverlappingDataBurstsAreCaught)
{
    const DeviceParams p = toy();
    act(p, 0, 0);
    act(p, 1, 8);
    read(p, 0, 16); // data [32, 48)
    read(p, 1, 24); // data [40, 56): collides on the shared bus
    EXPECT_EQ(checker().count(Rule::BusOverlap), 1u) << checker().report();
    EXPECT_EQ(checker().violations().size(), 1u) << checker().report();
}

TEST_F(ProtocolCheck, MisshapenCasDataPhaseIsCaught)
{
    const DeviceParams p = toy();
    act(p, 0, 0);
    read(p, 0, 16, /*data_start=*/20); // tRL says data must start at 32
    EXPECT_EQ(checker().count(Rule::TCas), 1u) << checker().report();
}

TEST_F(ProtocolCheck, EarlyWakeInvariantsAreCaught)
{
    checker().earlyWake(7, 100, /*fast_arrived=*/false, kTickNever, true);
    checker().earlyWake(8, 100, true, /*fast_tick=*/120, true);
    checker().earlyWake(9, 100, true, 90, /*parity_ok=*/false);
    EXPECT_EQ(checker().count(Rule::EarlyWake), 3u) << checker().report();
}

TEST_F(ProtocolCheck, MshrLeakIsCaughtAtFinalize)
{
    checker().mshrAlloc(&chan_, 1, 10);
    checker().mshrAlloc(&chan_, 2, 20);
    checker().mshrRelease(&chan_, 1, 30);
    checker().finalizeAll();
    EXPECT_EQ(checker().count(Rule::MshrLeak), 1u) << checker().report();
    // finalizeAll drains the live set: a second pass adds nothing.
    checker().finalizeAll();
    EXPECT_EQ(checker().count(Rule::MshrLeak), 1u) << checker().report();
}

TEST_F(ProtocolCheck, L1HitOnLineWithLiveMshrIsCaught)
{
    checker().l1Hit(0x1000, 0, 100, /*mshr_live=*/false);
    EXPECT_EQ(checker().count(Rule::L1HitMshr), 0u) << checker().report();
    checker().l1Hit(0x2040, 3, 110, /*mshr_live=*/true);
    ASSERT_EQ(checker().count(Rule::L1HitMshr), 1u) << checker().report();
    EXPECT_EQ(checker().violations().back().where, "l1.3 line 0x2040");
    // The inline hook evaluates the MSHR probe only while armed.
    bool probed = false;
    check::onL1Hit(0x3000, 0, 120, [&] {
        probed = true;
        return false;
    });
    EXPECT_TRUE(probed);
    checker().disable();
    probed = false;
    check::onL1Hit(0x3000, 0, 130, [&] {
        probed = true;
        return true;
    });
    EXPECT_FALSE(probed);
    EXPECT_EQ(checker().count(Rule::L1HitMshr), 1u);
}

TEST_F(ProtocolCheck, CompletionTickMustBeMaxOfFragments)
{
    checker().cwfFillIssued(&chan_, 6, 0);
    checker().cwfFragment(&chan_, 6, true, 10);
    checker().cwfFragment(&chan_, 6, false, 30);
    checker().cwfComplete(&chan_, 6, 10, 30, /*done=*/34);
    EXPECT_EQ(checker().count(Rule::CwfCompletion), 1u)
        << checker().report();
}

TEST_F(ProtocolCheck, DuplicateFastFragmentIsCaught)
{
    checker().cwfFillIssued(&chan_, 7, 0);
    checker().cwfFragment(&chan_, 7, true, 10);
    checker().cwfFragment(&chan_, 7, true, 12);
    EXPECT_EQ(checker().count(Rule::CwfFragment), 1u)
        << checker().report();
}

TEST_F(ProtocolCheck, DuplicateOrMissingSlowFragmentIsCaught)
{
    // Each completed line takes exactly one slow fragment: a second one
    // is a duplicate...
    checker().cwfFillIssued(&chan_, 8, 0);
    checker().cwfFragment(&chan_, 8, /*fast=*/true, 10);
    checker().cwfFragment(&chan_, 8, /*fast=*/false, 30);
    checker().cwfFragment(&chan_, 8, /*fast=*/false, 30);
    EXPECT_EQ(checker().count(Rule::CwfFragment), 1u) << checker().report();
    checker().cwfComplete(&chan_, 8, 10, 30, 30);
    EXPECT_EQ(checker().count(Rule::CwfCompletion), 0u)
        << checker().report();
    // ...and completing a line without one is premature.
    checker().cwfFillIssued(&chan_, 9, 0);
    checker().cwfFragment(&chan_, 9, /*fast=*/true, 10);
    checker().cwfComplete(&chan_, 9, 10, /*slow=*/0, /*done=*/10);
    EXPECT_EQ(checker().count(Rule::CwfCompletion), 1u)
        << checker().report();
    EXPECT_EQ(checker().count(Rule::CwfFragment), 1u) << checker().report();
    EXPECT_EQ(checker().violations().size(), 2u) << checker().report();
}

TEST_F(ProtocolCheck, DoubleFaultResolveIsCaught)
{
    checker().faultInjected(&chan_, 1, 10);
    checker().faultResolved(&chan_, 1, 20);
    EXPECT_EQ(checker().count(Rule::Fault), 0u) << checker().report();
    checker().faultResolved(&chan_, 1, 30);
    EXPECT_EQ(checker().count(Rule::Fault), 1u) << checker().report();
}

TEST_F(ProtocolCheck, ResolveOfUninjectedFaultIsCaught)
{
    checker().faultInjected(&chan_, 1, 10);
    checker().faultResolved(&chan_, 2, 20);
    EXPECT_EQ(checker().count(Rule::Fault), 1u) << checker().report();
}

TEST_F(ProtocolCheck, UnresolvedFaultIsCaughtAtFinalize)
{
    checker().faultInjected(&chan_, 1, 10);
    checker().faultInjected(&chan_, 2, 20);
    checker().faultResolved(&chan_, 1, 30);
    EXPECT_EQ(checker().count(Rule::Fault), 0u) << checker().report();
    checker().finalizeAll();
    EXPECT_EQ(checker().count(Rule::Fault), 1u) << checker().report();
    // finalizeAll drains the live set: a second pass adds nothing.
    checker().finalizeAll();
    EXPECT_EQ(checker().count(Rule::Fault), 1u) << checker().report();
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
    const std::string report = checker().report();
    EXPECT_NE(report.find("tFAW"), std::string::npos) << report;
    EXPECT_NE(report.find("tick 32"), std::string::npos) << report;
    EXPECT_NE(report.find("channel toy rank 0 bank 4"), std::string::npos)
        << report;
}

TEST_F(ProtocolCheck, AbortModePanicsOnFirstViolation)
{
    checker().enable(Mode::Abort);
    setLogThrowOnError(true);
    EXPECT_THROW(
        checker().earlyWake(1, 5, /*fast_arrived=*/false, kTickNever, true),
        SimError);
    setLogThrowOnError(false);
    checker().enable(Mode::Collect); // restore fixture expectations
}

TEST_F(ProtocolCheck, DisabledHooksRecordNothing)
{
    checker().disable();
    check::onEarlyWake(1, 5, /*fast_arrived=*/false, kTickNever, true);
    EXPECT_TRUE(checker().violations().empty());
}

} // namespace
