/**
 * @file
 * Random-traffic fuzzing under the runtime protocol validator: whole
 * systems (cores + caches + heterogeneous backends) driven by randomized
 * workload seeds, and a bursty synthetic storm on a raw channel, must
 * produce zero protocol or model-invariant violations.  Two
 * differentials on the same traffic pin the main loop: the plain and
 * self-profiled ticks give element-wise identical lifecycle streams, and
 * runSimulation ends on the same tick with the same IPC as a
 * hand-stepped per-tick loop.  CI runs this binary under ASan/UBSan, so the
 * fuzz also shakes out memory errors in the checker's own bookkeeping.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "check/checker.hh"
#include "common/rng.hh"
#include "common/trace.hh"
#include "dram/channel.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "sim/system.hh"
#include "workloads/suite.hh"

using namespace hetsim;
using namespace hetsim::sim;
using check::Mode;

namespace
{

class FuzzSystem
    : public ::testing::TestWithParam<
          std::tuple<MemConfig, std::string, std::uint64_t>>
{
};

TEST_P(FuzzSystem, RandomTrafficProducesNoViolations)
{
    const auto [mem, bench, seed] = GetParam();
    check::arm(Mode::Collect);
    {
        SystemParams p;
        p.mem = mem;
        p.seed = seed;
        System system(p, workloads::suite::byName(bench), 8);
        RunConfig rc;
        rc.measureReads = 600;
        rc.warmupReads = 200;
        const RunResult r = runSimulation(system, rc);
        EXPECT_GT(r.demandReads, 0u);
        // The run stops mid-flight, so live MSHRs are legitimate here;
        // leak detection (checkDrained) belongs to drained-stream tests.
        EXPECT_TRUE(check::violations().empty()) << check::report();
    }
    check::disarm();
}

INSTANTIATE_TEST_SUITE_P(
    ConfigSweep, FuzzSystem,
    ::testing::Values(
        std::make_tuple(MemConfig::BaselineDDR3, "milc", 0xfeedULL),
        std::make_tuple(MemConfig::CwfRL, "mcf", 0xbeefULL),
        std::make_tuple(MemConfig::CwfRL, "omnetpp", 7ULL),
        std::make_tuple(MemConfig::CwfRLAdaptive, "leslie3d", 11ULL),
        std::make_tuple(MemConfig::CwfRD, "xalancbmk", 13ULL)),
    [](const auto &info) {
        std::string name = std::string(toString(std::get<0>(info.param))) +
                           "_" + std::get<1>(info.param);
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

class FuzzEngineDifferential
    : public ::testing::TestWithParam<
          std::tuple<MemConfig, std::string, std::uint64_t>>
{
};

TEST_P(FuzzEngineDifferential, EnginesProduceElementWiseIdenticalStreams)
{
    // Compares the main loop's two stepping paths — the plain tick and
    // the HETSIM_PROFILE-timed tick — on random bursty traffic,
    // validator armed: not just matching end reports, but an
    // *element-wise identical* request-lifecycle audit stream (every
    // CoreIssue/MshrAlloc/Enqueue/BankAct/BankCas/FastArrive/EarlyWake/
    // LineComplete record at the same tick with the same payload).
    const auto [mem, bench, seed] = GetParam();
    auto &tracer = trace::Tracer::instance();

    auto runOnce = [&](bool profiled, std::string &report) {
        check::arm(Mode::Collect);
        tracer.enableInMemory(1u << 20);
        std::vector<std::string> events;
        {
            SystemParams p;
            p.mem = mem;
            p.seed = seed;
            System system(p, workloads::suite::byName(bench), 8);
            system.setProfiling(profiled);
            RunConfig rc;
            rc.measureReads = 600;
            rc.warmupReads = 200;
            const RunResult r = runSimulation(system, rc);
            EXPECT_GT(r.demandReads, 0u);
            EXPECT_TRUE(check::violations().empty()) << check::report();
            report = renderReportJson(system, r);
        }
        for (const trace::Record &rec : tracer.buffered()) {
            std::ostringstream os;
            os << toString(rec.event) << " t=" << rec.tick
               << " id=" << rec.reqId << " line=" << rec.lineAddr
               << " detail=" << rec.detail << " aux=" << rec.aux
               << " core=" << static_cast<unsigned>(rec.core)
               << " chan=" << static_cast<unsigned>(rec.channel)
               << " part=" << static_cast<unsigned>(rec.part);
            events.push_back(os.str());
        }
        tracer.disable();
        check::disarm();
        return events;
    };

    std::string plain_report, profiled_report;
    const auto plain_events = runOnce(false, plain_report);
    const auto profiled_events = runOnce(true, profiled_report);

    ASSERT_GT(plain_events.size(), 0u);
    ASSERT_EQ(plain_events.size(), profiled_events.size())
        << "lifecycle stream length differs between the plain and the "
           "HETSIM_PROFILE-timed tick";
    for (std::size_t i = 0; i < plain_events.size(); ++i)
        ASSERT_EQ(plain_events[i], profiled_events[i])
            << "plain and HETSIM_PROFILE-timed tick diverge at lifecycle "
               "stream element "
            << i;
    EXPECT_EQ(plain_report, profiled_report)
        << "JSON report differs between the plain and the "
           "HETSIM_PROFILE-timed tick";
}

INSTANTIATE_TEST_SUITE_P(
    EngineSweep, FuzzEngineDifferential,
    ::testing::Values(
        std::make_tuple(MemConfig::BaselineDDR3, "milc", 0xfeedULL),
        std::make_tuple(MemConfig::CwfRL, "mcf", 0xbeefULL),
        std::make_tuple(MemConfig::CwfRLAdaptive, "leslie3d", 11ULL)),
    [](const auto &info) {
        std::string name = std::string(toString(std::get<0>(info.param))) +
                           "_" + std::get<1>(info.param);
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

class FuzzBatchDifferential
    : public ::testing::TestWithParam<
          std::tuple<MemConfig, std::string, std::uint64_t>>
{
};

TEST_P(FuzzBatchDifferential, BatchedCoresMatchPerTickCoresMidRun)
{
    // Compares runSimulation against the same run stepped here one
    // System::tick() at a time, warmup and measurement, validator
    // armed: both must end on the same tick with the same demand fills
    // and aggregate IPC.
    const auto [mem, bench, seed] = GetParam();
    RunConfig rc;
    rc.measureReads = 600;
    rc.warmupReads = 200;

    SystemParams p;
    p.mem = mem;
    p.seed = seed;
    const auto &profile = workloads::suite::byName(bench);

    check::arm(Mode::Collect);
    Tick stepped_end = 0;
    std::uint64_t stepped_reads = 0;
    double stepped_ipc = 0;
    {
        System system(p, profile, 8);
        const auto &stats = system.hierarchy().stats();
        while (stats.demandCompletions.value() < rc.warmupReads &&
               system.now() < rc.maxWarmupTicks)
            system.tick();
        system.resetStats();
        const std::uint64_t start = stats.demandCompletions.value();
        const Tick deadline = system.now() + rc.maxMeasureTicks;
        while (stats.demandCompletions.value() - start < rc.measureReads &&
               system.now() < deadline)
            system.tick();
        stepped_end = system.now();
        stepped_reads = stats.demandCompletions.value();
        stepped_ipc = system.aggregateIpc();
    }
    Tick simulated_end = 0;
    std::uint64_t simulated_reads = 0;
    double simulated_ipc = 0;
    {
        System system(p, profile, 8);
        const RunResult r = runSimulation(system, rc);
        simulated_end = system.now();
        simulated_reads = r.demandReads;
        simulated_ipc = r.aggIpc;
    }
    EXPECT_TRUE(check::violations().empty()) << check::report();
    check::disarm();

    EXPECT_GT(simulated_reads, 0u);
    EXPECT_EQ(stepped_end, simulated_end)
        << "final tick differs between the per-tick loop and "
           "runSimulation";
    EXPECT_EQ(stepped_reads, simulated_reads)
        << "demand fills differ between the per-tick loop and "
           "runSimulation";
    EXPECT_EQ(stepped_ipc, simulated_ipc)
        << "aggregate IPC differs between the per-tick loop and "
           "runSimulation";
}

INSTANTIATE_TEST_SUITE_P(
    BatchSweep, FuzzBatchDifferential,
    ::testing::Values(
        std::make_tuple(MemConfig::BaselineDDR3, "milc", 0xfeedULL),
        std::make_tuple(MemConfig::CwfRL, "mcf", 0xbeefULL),
        std::make_tuple(MemConfig::CwfRLAdaptive, "leslie3d", 11ULL)),
    [](const auto &info) {
        std::string name = std::string(toString(std::get<0>(info.param))) +
                           "_" + std::get<1>(info.param);
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

TEST(FuzzChannel, BurstyStormDrainsCleanWithNoLeaks)
{
    // A harsher stream than the property sweep: ~1k requests injected in
    // bursts (saturating the queue, forcing refresh catch-up and
    // power-down churn), drained to idle, judged command by command.
    check::arm(Mode::Collect);
    {
        const dram::DeviceParams dev = dram::DeviceParams::ddr3_1600();
        dram::Channel chan("fuzz", dev, 2);
        Rng rng(0x57024);
        unsigned injected = 0;
        Tick t = 0;
        const Tick horizon = 120'000'000;
        while ((injected < 1000 || !chan.idle()) && t < horizon) {
            // Bursts: long quiet gaps (power-down entry) then floods.
            const bool burst = (t / 5000) % 3 == 0;
            if (injected < 1000 && burst && rng.chance(0.5)) {
                dram::MemRequest req;
                req.id = injected;
                req.lineAddr = injected * 64ULL;
                req.type = rng.chance(0.35) ? AccessType::Write
                                            : AccessType::Read;
                req.coord = dram::DramCoord{
                    0, static_cast<std::uint8_t>(rng.below(2)),
                    static_cast<std::uint8_t>(rng.below(dev.banksPerRank)),
                    static_cast<std::uint32_t>(rng.below(128)),
                    static_cast<std::uint32_t>(
                        rng.below(dev.lineColsPerRow))};
                if (chan.canAccept(req.type)) {
                    chan.enqueue(req, t);
                    injected += 1;
                }
            }
            chan.tick(t);
            t += 1;
        }
        ASSERT_LT(t, horizon) << "storm failed to drain";
    }
    EXPECT_TRUE(check::violations().empty()) << check::report();
    check::disarm();
}

} // namespace
