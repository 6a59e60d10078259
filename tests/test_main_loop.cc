/**
 * @file
 * Properties of the one main loop (System::tick: every core, then the
 * hierarchy, then the backend, on every tick), across every DRAM
 * backend family with the protocol validator armed:
 *
 *  - the wake-up contract: every component is stepped on every tick and
 *    every parked load is woken on the very tick its data arrives;
 *  - runSimulation advances exactly like a hand-written per-tick loop:
 *    same final tick, same full report;
 *  - the self-profiled tick (HETSIM_PROFILE) steps exactly like the
 *    plain one and counts every tick;
 *  - a refresh deadline missed by jumping the clock is caught.
 *
 * The suites keep the names under which the idle fast-forward and the
 * discrete-event engine were tested; with those gone, the same names
 * pin what they had to preserve.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <tuple>

#include "check/checker.hh"
#include "dram/channel.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "sim/system.hh"
#include "workloads/suite.hh"

using namespace hetsim;
using namespace hetsim::sim;
using check::Checker;
using check::Mode;
using check::Rule;

namespace
{

SystemParams
paramsFor(MemConfig mem, std::uint64_t seed)
{
    SystemParams p;
    p.mem = mem;
    p.seed = seed;
    if (mem == MemConfig::PagePlacement) {
        // Page placement needs a hot-page set; any deterministic one
        // exercises the fast channel + slow fallback split.
        for (std::uint64_t page = 0; page < 64; ++page)
            p.hotPages.insert(page);
    }
    return p;
}

std::string
paramName(std::string name)
{
    for (char &c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return name;
}

// --------------------------------------------------------------------
// Wake-up contract
// --------------------------------------------------------------------

class WakeContract : public ::testing::TestWithParam<MemConfig>
{
};

TEST_P(WakeContract, NoComponentSleepsPastItsOwnNextEventTick)
{
    const SystemParams p = paramsFor(GetParam(), 0x5EED5ULL);
    const auto &profile = workloads::suite::byName("mcf");

    auto &checker = Checker::instance();
    checker.enable(Mode::Collect);
    {
        System system(p, profile, p.cores);
        system.setProfiling(true);
        std::uint64_t wakes = 0, late_or_early = 0;
        system.hierarchy().setWakeFn(
            [&](std::uint8_t core, std::uint16_t slot, Tick when) {
                wakes += 1;
                if (when != system.now())
                    late_or_early += 1;
                system.core(core).wake(slot, when);
            });
        const auto &stats = system.hierarchy().stats();
        const Tick deadline = 2'000'000;
        while (stats.demandCompletions.value() < 400 &&
               system.now() < deadline)
            system.tick();

        EXPECT_GT(stats.demandCompletions.value(), 0u);
        EXPECT_GT(wakes, 0u);
        EXPECT_EQ(late_or_early, 0u)
            << "a load was woken off the tick its data arrived";
        // Every tick stepped every component group ...
        EXPECT_EQ(system.selfProfile().ticks,
                  static_cast<std::uint64_t>(system.now()));
        // ... and every core accounted each of those ticks exactly once.
        for (unsigned c = 0; c < system.activeCores(); ++c) {
            std::uint64_t cycles = 0;
            for (unsigned b = 0; b < cpu::Core::kCpiBuckets; ++b)
                cycles += system.core(c).cpiCycles(
                    static_cast<cpu::Core::CpiBucket>(b));
            EXPECT_EQ(cycles, static_cast<std::uint64_t>(
                                  system.now() - system.windowStart()))
                << "core " << c;
        }
    }
    EXPECT_TRUE(checker.violations().empty()) << checker.report();
    checker.disable();
}

INSTANTIATE_TEST_SUITE_P(
    BackendFamilies, WakeContract,
    ::testing::Values(MemConfig::BaselineDDR3, MemConfig::HomoRLDRAM3,
                      MemConfig::HomoLPDDR2, MemConfig::CwfRD,
                      MemConfig::CwfRL, MemConfig::CwfRLAdaptive,
                      MemConfig::PagePlacement, MemConfig::HmcCdf),
    [](const auto &info) { return paramName(toString(info.param)); });

// --------------------------------------------------------------------
// runSimulation and the profiled tick against plain per-tick stepping
// --------------------------------------------------------------------

class FastForwardProperty
    : public ::testing::TestWithParam<
          std::tuple<MemConfig, const char *, std::uint64_t>>
{
  protected:
    static RunConfig
    runConfig()
    {
        RunConfig rc;
        rc.measureReads = 600;
        rc.warmupReads = 200;
        return rc;
    }
};

struct LoopRun
{
    Tick endTick = 0;
    std::uint64_t profiledTicks = 0;
    std::string report;
};

TEST_P(FastForwardProperty, SkipAheadIsBitIdenticalToPerTickStepping)
{
    // runSimulation must never skip or batch: its run is bit-identical
    // to one whose warmup is stepped here one System::tick() at a time
    // (runSimulation then measures from the same state).
    const auto [mem, bench, seed] = GetParam();
    const SystemParams p = paramsFor(mem, seed);
    const auto &profile = workloads::suite::byName(bench);
    const RunConfig rc = runConfig();
    auto &checker = Checker::instance();

    auto runOnce = [&](bool hand_warmup) {
        checker.enable(Mode::Collect);
        System system(p, profile, p.cores);
        RunConfig measure = rc;
        if (hand_warmup) {
            const auto &stats = system.hierarchy().stats();
            while (stats.demandCompletions.value() < rc.warmupReads &&
                   system.now() < rc.maxWarmupTicks)
                system.tick();
            measure.warmupReads = 0;
        }
        const RunResult r = runSimulation(system, measure);
        EXPECT_GT(r.demandReads, 0u);
        EXPECT_TRUE(checker.violations().empty()) << checker.report();
        LoopRun out{system.now(), 0, renderReportJson(system, r)};
        checker.disable();
        return out;
    };

    const LoopRun stepped = runOnce(true);
    const LoopRun simulated = runOnce(false);
    EXPECT_EQ(stepped.endTick, simulated.endTick);
    EXPECT_EQ(stepped.report, simulated.report);
}

TEST_P(FastForwardProperty, EventEngineIsBitIdenticalToTickEngine)
{
    // The self-profiled tick times each component group separately but
    // must step them exactly like the plain tick — same final tick,
    // same full report — and count every tick it steps.
    const auto [mem, bench, seed] = GetParam();
    const SystemParams p = paramsFor(mem, seed);
    const auto &profile = workloads::suite::byName(bench);
    const RunConfig rc = runConfig();
    auto &checker = Checker::instance();

    auto runOnce = [&](bool profiled) {
        checker.enable(Mode::Collect);
        System system(p, profile, p.cores);
        system.setProfiling(profiled);
        const RunResult r = runSimulation(system, rc);
        EXPECT_GT(r.demandReads, 0u);
        EXPECT_TRUE(checker.violations().empty()) << checker.report();
        LoopRun out{system.now(), system.selfProfile().ticks,
                    renderReportJson(system, r)};
        checker.disable();
        return out;
    };

    const LoopRun plain = runOnce(false);
    const LoopRun profiled = runOnce(true);
    EXPECT_EQ(plain.profiledTicks, 0u);
    EXPECT_EQ(profiled.profiledTicks,
              static_cast<std::uint64_t>(profiled.endTick));
    EXPECT_EQ(plain.endTick, profiled.endTick);
    EXPECT_EQ(plain.report, profiled.report);
}

INSTANTIATE_TEST_SUITE_P(
    BackendSweep, FastForwardProperty,
    ::testing::Values(
        std::make_tuple(MemConfig::BaselineDDR3, "milc", 0xfeedULL),
        std::make_tuple(MemConfig::HomoLPDDR2, "astar", 29ULL),
        std::make_tuple(MemConfig::CwfRL, "mcf", 0xbeefULL),
        std::make_tuple(MemConfig::CwfRD, "xalancbmk", 13ULL),
        std::make_tuple(MemConfig::CwfRLAdaptive, "leslie3d", 11ULL),
        std::make_tuple(MemConfig::PagePlacement, "omnetpp", 23ULL),
        std::make_tuple(MemConfig::HmcCdf, "libquantum", 17ULL),
        // Low-MPKI workload: long stretches with nothing in flight.
        std::make_tuple(MemConfig::BaselineDDR3, "ep", 5ULL)),
    [](const auto &info) {
        return paramName(std::string(toString(std::get<0>(info.param))) +
                         "_" + std::get<1>(info.param));
    });

// --------------------------------------------------------------------
// Checker-armed negative
// --------------------------------------------------------------------

TEST(EventQueueNegative, MissedRefreshDeadlineIsCaught)
{
    // Drive a raw channel the way a buggy main loop would: jump the
    // clock far past the rank's tREFI schedule, then resume ticking.
    // The late refresh the channel then issues must trip the
    // validator's refresh-spacing rule.
    const dram::DeviceParams dev = dram::DeviceParams::ddr3_1600();
    auto &checker = Checker::instance();
    checker.enable(Mode::Collect);
    {
        dram::Channel chan("refmiss", dev, 1);
        chan.setCallback([](dram::MemRequest &) {});

        // Warm up legitimately so a refresh baseline exists.
        Tick t = 0;
        for (; t < 4 * dev.ticks(dev.tREFI); ++t)
            chan.tick(t);

        // Skip ~8 tREFI; the pending refresh deadline sails past.
        t += 8 * dev.ticks(dev.tREFI);
        for (Tick end = t + 4 * dev.ticks(dev.tREFI); t < end; ++t)
            chan.tick(t);
    }
    EXPECT_GE(checker.count(Rule::RefreshSpacing), 1u)
        << checker.report();
    checker.disable();
}

} // namespace
