/**
 * @file
 * End-to-end simulation tests at reduced read quanta: every named
 * configuration runs to completion; the qualitative orderings the paper
 * rests on hold (homogeneous RLDRAM3 > DDR3 > LPDDR2; RL cuts critical
 * word latency for word-0-dominant workloads and serves most of their
 * critical words from the fast DIMM; pointer chasers see little of
 * either); runs are deterministic per seed.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>

#include "sim/experiments.hh"
#include "sim/simulator.hh"
#include "sim/system.hh"
#include "workloads/suite.hh"

using namespace hetsim;
using namespace hetsim::sim;

namespace
{

RunConfig
quick(std::uint64_t reads = 3000)
{
    // Warmup must absorb the initial fill of the hot working sets (which
    // is word-0-biased streaming) or short windows measure transients.
    RunConfig rc;
    rc.measureReads = reads;
    rc.warmupReads = std::max<std::uint64_t>(reads, 4000);
    rc.maxWarmupTicks = 6'000'000;
    rc.maxMeasureTicks = 20'000'000;
    return rc;
}

RunResult
runOne(MemConfig mem, const std::string &bench, unsigned cores = 8,
       bool prefetch = true, std::uint64_t reads = 3000)
{
    SystemParams p;
    p.mem = mem;
    p.prefetcherEnabled = prefetch;
    System system(p, workloads::suite::byName(bench), cores);
    return runSimulation(system, quick(reads));
}

TEST(Simulation, EveryConfigRunsLeslie3d)
{
    for (const MemConfig c : allMemConfigs()) {
        const RunResult r = runOne(c, "leslie3d", 8, true, 600);
        EXPECT_GT(r.aggIpc, 0.0) << toString(c);
        EXPECT_GT(r.demandReads, 0u) << toString(c);
        EXPECT_GT(r.dramPowerMw, 0.0) << toString(c);
    }
}

TEST(Simulation, HomogeneousLatencyOrdering)
{
    // Fig. 1: RLDRAM3 homogeneous beats DDR3 beats LPDDR2 on a
    // bandwidth-bound workload.
    const RunResult rl = runOne(MemConfig::HomoRLDRAM3, "libquantum");
    const RunResult d3 = runOne(MemConfig::BaselineDDR3, "libquantum");
    const RunResult lp = runOne(MemConfig::HomoLPDDR2, "libquantum");
    EXPECT_GT(rl.aggIpc, d3.aggIpc);
    EXPECT_GT(d3.aggIpc, lp.aggIpc);
    EXPECT_LT(rl.latency.totalTicks, d3.latency.totalTicks);
    EXPECT_LT(d3.latency.totalTicks, lp.latency.totalTicks);
}

TEST(Simulation, QueueAndServiceLatencyBothDropOnRldram)
{
    // Fig. 1b: both queue and core latency shrink on RLDRAM3 (milc is
    // bank-conflict heavy, the case the low tRC targets).
    const RunResult rl = runOne(MemConfig::HomoRLDRAM3, "milc");
    const RunResult d3 = runOne(MemConfig::BaselineDDR3, "milc");
    EXPECT_LT(rl.latency.queueTicks, d3.latency.queueTicks);
    EXPECT_LT(rl.latency.serviceTicks, d3.latency.serviceTicks);
}

TEST(Simulation, RlCutsCriticalWordLatencyForWordZeroWorkloads)
{
    const RunResult base = runOne(MemConfig::BaselineDDR3, "leslie3d");
    const RunResult rl = runOne(MemConfig::CwfRL, "leslie3d");
    EXPECT_LT(rl.criticalWordLatencyTicks,
              base.criticalWordLatencyTicks);
    EXPECT_GT(rl.servedByFastFraction, 0.5)
        << "leslie3d's word-0 bias must hit the fast DIMM";
    EXPECT_GT(rl.fastLeadTicks, 20.0)
        << "critical word must lead by tens of CPU cycles";
}

TEST(Simulation, PointerChasersRarelyHitTheFastDimm)
{
    const RunResult rl = runOne(MemConfig::CwfRL, "omnetpp");
    EXPECT_LT(rl.servedByFastFraction, 0.35);
}

TEST(Simulation, OracleServesEverythingFast)
{
    const RunResult rl = runOne(MemConfig::CwfRLOracle, "mcf", 8, true,
                                1000);
    EXPECT_GT(rl.servedByFastFraction, 0.95);
}

TEST(Simulation, RandomMappingServesAboutAnEighth)
{
    const RunResult rl = runOne(MemConfig::CwfRLRandom, "leslie3d");
    EXPECT_NEAR(rl.servedByFastFraction, 0.125, 0.08);
}

TEST(Simulation, AdaptiveBeatsStaticForMcf)
{
    // mcf's word-3 critical words are only reachable after adaptive
    // re-organisation (Section 6.1.2).  Adaptation needs whole
    // fetch -> dirty-writeback -> re-fetch cycles, so this test runs a
    // longer window than the others; the AD-over-RL gap keeps growing
    // with the quantum (the paper's 2M-read windows show +2.8%).
    RunConfig rc;
    rc.measureReads = 80000;
    rc.warmupReads = 20000;
    rc.maxWarmupTicks = 80'000'000;
    rc.maxMeasureTicks = 240'000'000;
    SystemParams st_p;
    st_p.mem = MemConfig::CwfRL;
    System st_sys(st_p, workloads::suite::byName("mcf"), 8);
    const RunResult st = runSimulation(st_sys, rc);

    SystemParams ad_p;
    ad_p.mem = MemConfig::CwfRLAdaptive;
    System ad_sys(ad_p, workloads::suite::byName("mcf"), 8);
    const RunResult ad = runSimulation(ad_sys, rc);

    EXPECT_GT(ad.servedByFastFraction, st.servedByFastFraction);
    EXPECT_GT(ad.aggIpc, st.aggIpc);
}

TEST(Simulation, CriticalWordDistributionMatchesProfile)
{
    const RunResult r = runOne(MemConfig::BaselineDDR3, "leslie3d");
    EXPECT_GT(r.criticalWordDist[0], 0.6);
    const RunResult u = runOne(MemConfig::BaselineDDR3, "xalancbmk");
    EXPECT_LT(u.criticalWordDist[0], 0.5);
}

TEST(Simulation, AloneRunHasHigherPerCoreIpc)
{
    const RunResult shared =
        runOne(MemConfig::BaselineDDR3, "mg", 8, true, 1200);
    const RunResult alone =
        runOne(MemConfig::BaselineDDR3, "mg", 1, true, 400);
    ASSERT_EQ(alone.perCoreIpc.size(), 1u);
    EXPECT_GT(alone.perCoreIpc[0], shared.perCoreIpc[0])
        << "contention must hurt per-core IPC";
}

TEST(Simulation, DeterministicAcrossRuns)
{
    const RunResult a = runOne(MemConfig::CwfRL, "mcf", 8, true, 800);
    const RunResult b = runOne(MemConfig::CwfRL, "mcf", 8, true, 800);
    EXPECT_EQ(a.windowTicks, b.windowTicks);
    EXPECT_DOUBLE_EQ(a.aggIpc, b.aggIpc);
    EXPECT_EQ(a.demandReads, b.demandReads);
}

TEST(Simulation, OpenPageBaselineGetsRowHits)
{
    const RunResult d3 = runOne(MemConfig::BaselineDDR3, "stream");
    EXPECT_GT(d3.rowHitRate, 0.3) << "streaming must hit open rows";
    const RunResult rl = runOne(MemConfig::HomoRLDRAM3, "stream");
    EXPECT_DOUBLE_EQ(rl.rowHitRate, 0.0) << "close page has no row hits";
}

TEST(Simulation, LowIntensityWorkloadHitsTickCap)
{
    // ep barely touches DRAM: far short of its read target, the
    // measurement window must end exactly at the tick cap and still
    // report sane numbers.
    RunConfig rc;
    rc.measureReads = 100000;
    rc.warmupReads = 4000;
    rc.maxWarmupTicks = 50'000;
    rc.maxMeasureTicks = 100'000;
    SystemParams p;
    p.mem = MemConfig::BaselineDDR3;
    System system(p, workloads::suite::byName("ep"), 8);
    const RunResult r = runSimulation(system, rc);
    EXPECT_EQ(r.windowTicks, rc.maxMeasureTicks);
    EXPECT_TRUE(r.capped);
    EXPECT_GT(r.aggIpc, 0.0);
}

/** Per core: the five CPI buckets (Core::CpiBucket order), dispatch
 *  stalls, ROB occupancy sum and instructions retired. */
using CoreCounters = std::array<std::uint64_t, 8>;

std::vector<CoreCounters>
coreCounters(MemConfig mem, const std::string &bench, unsigned cores,
             std::uint64_t reads)
{
    SystemParams p;
    p.mem = mem;
    System system(p, workloads::suite::byName(bench), cores);
    RunConfig rc;
    rc.measureReads = reads;
    rc.warmupReads = 200;
    runSimulation(system, rc);
    std::vector<CoreCounters> out;
    for (unsigned c = 0; c < cores; ++c) {
        const cpu::Core &core = system.core(c);
        CoreCounters row{};
        for (unsigned b = 0; b < cpu::Core::kCpiBuckets; ++b)
            row[b] = core.cpiCycles(static_cast<cpu::Core::CpiBucket>(b));
        row[5] = core.dispatchStalls();
        row[6] = core.robOccupancySum();
        row[7] = core.retired();
        out.push_back(row);
    }
    return out;
}

TEST(Simulation, CpiStackIsPinned)
{
    // Values recorded on the current core model at a small quantum; the
    // goldens carry none of these counters.
    const std::vector<CoreCounters> mcf_rl = {
        {10365, 3569, 24970, 0, 16, 28706, 2378846, 41855},
        {16433, 5043, 17436, 0, 8, 22661, 2385174, 67448},
        {6117, 2816, 29971, 0, 16, 32942, 2230323, 24628},
        {10397, 3262, 25257, 0, 4, 28661, 2393803, 42091},
        {7844, 2493, 28583, 0, 0, 31214, 2449710, 31562},
        {10690, 3261, 24964, 0, 5, 28389, 2439515, 43213},
        {7098, 2404, 29415, 0, 3, 31956, 2401388, 28615},
        {11690, 3526, 23683, 0, 21, 27374, 2422628, 47212},
    };
    const std::vector<CoreCounters> bzip2_ddr3 = {
        {1451229, 23919, 0, 0, 0, 24078, 94409472, 6313200},
    };
    EXPECT_EQ(coreCounters(MemConfig::CwfRL, "mcf", 8, 2000), mcf_rl);
    EXPECT_EQ(coreCounters(MemConfig::BaselineDDR3, "bzip2", 1, 300),
              bzip2_ddr3);
}

TEST(Simulation, ParityErrorsSuppressEarlyWakes)
{
    SystemParams p;
    p.mem = MemConfig::CwfRL;
    p.fault.parityFailRate = 1.0;
    System system(p, workloads::suite::byName("leslie3d"), 8);
    const RunResult r = runSimulation(system, quick(800));
    EXPECT_EQ(system.hierarchy().stats().earlyWakes.value(), 0u);
    EXPECT_GT(system.hierarchy().stats().parityBlockedWakes.value(), 0u);
    EXPECT_GT(r.aggIpc, 0.0);
    // Every failed word is served when its line completes, so the run
    // still reaches its read quantum rather than the tick cap.
    EXPECT_FALSE(r.capped);
}

TEST(ExperimentRunnerDeathTest, UnknownWorkloadFailsBeforeAnyRun)
{
    // HETSIM_WORKLOADS is validated when the runner is built, so a typo
    // stops the sweep up front with the valid names, not mid-sweep.
    EXPECT_EXIT(
        {
            setenv("HETSIM_WORKLOADS", "mcf,notabenchmark", 1);
            ExperimentRunner runner(1);
        },
        ::testing::ExitedWithCode(1),
        "unknown benchmark 'notabenchmark'; valid names: .*leslie3d");
}

TEST(ExperimentRunnerDeathTest, MissingJsonDirFailsBeforeAnyRun)
{
    // HETSIM_JSON_DIR is checked when the runner is built, so a typo
    // stops the sweep before any run instead of dropping every report.
    EXPECT_EXIT(
        {
            setenv("HETSIM_JSON_DIR", "/nonexistent/hetsim-json", 1);
            ExperimentRunner runner(1);
        },
        ::testing::ExitedWithCode(1),
        "HETSIM_JSON_DIR: '/nonexistent/hetsim-json' is not an existing "
        "directory");
}

TEST(ExperimentRunnerDeathTest, MalformedQuantumFailsBeforeAnyRun)
{
    // A unit suffix used to be dropped silently: "4k" ran a quantum of 4.
    EXPECT_EXIT(
        {
            setenv("HETSIM_READS", "4k", 1);
            ExperimentRunner runner(1);
        },
        ::testing::ExitedWithCode(1),
        "HETSIM_READS: expected an unsigned integer, got '4k'");
    EXPECT_EXIT(
        {
            setenv("HETSIM_READS", "0", 1);
            ExperimentRunner runner(1);
        },
        ::testing::ExitedWithCode(1),
        "HETSIM_READS: expected an integer >= 1, got '0'");
    EXPECT_EXIT(
        {
            setenv("HETSIM_WARMUP", "0", 1);
            ExperimentRunner runner(1);
        },
        ::testing::ExitedWithCode(1),
        "HETSIM_WARMUP: expected an integer >= 1, got '0'");
}

TEST(ExperimentScaleTest, EnvOverridesQuantum)
{
    setenv("HETSIM_READS", "12345", 1);
    const auto s = ExperimentScale::fromEnv();
    EXPECT_EQ(s.measureReads, 12345u);
    unsetenv("HETSIM_READS");
    const auto rc8 = s.runConfig(8, 8);
    const auto rc1 = s.runConfig(1, 8);
    EXPECT_EQ(rc8.measureReads, 12345u);
    EXPECT_LT(rc1.measureReads, rc8.measureReads);
}

TEST(ExperimentRunnerTest, MemoisesRuns)
{
    setenv("HETSIM_READS", "500", 1);
    setenv("HETSIM_WORKLOADS", "hmmer", 1);
    ExperimentRunner runner;
    ASSERT_EQ(runner.workloads().size(), 1u);
    const auto params = ExperimentRunner::paramsFor(MemConfig::CwfRL);
    const RunResult &a = runner.sharedRun(params, "hmmer");
    const RunResult &b = runner.sharedRun(params, "hmmer");
    EXPECT_EQ(&a, &b) << "identical runs must be memoised";
    const double wt = runner.weightedThroughput(params, "hmmer");
    EXPECT_GT(wt, 0.0);
    EXPECT_LE(wt, 8.5);
    unsetenv("HETSIM_READS");
    unsetenv("HETSIM_WORKLOADS");
}

} // namespace
