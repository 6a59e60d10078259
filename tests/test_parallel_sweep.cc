/**
 * @file
 * Determinism of the parallel sweep engine: running the five golden
 * configurations through ExperimentRunner::prefetch() on four worker
 * threads must produce RunResults — and exported JSON reports —
 * bit-identical to a one-worker (serial-equivalent) runner.  Results
 * are committed in submission order and every run's mutable state is
 * confined to its own System, so worker interleaving must not be
 * observable.  Two armed Systems on two threads each drain clean, and a
 * runner built while the lifecycle tracer records takes one worker.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "check/checker.hh"
#include "common/trace.hh"
#include "core/hetero_memory.hh"
#include "sim/experiments.hh"
#include "sim/golden.hh"
#include "sim/system.hh"
#include "workloads/suite.hh"

using namespace hetsim;
using namespace hetsim::sim;

namespace
{

namespace fs = std::filesystem;

std::vector<RunSpec>
goldenSweepSpecs()
{
    std::vector<RunSpec> specs;
    for (const auto &g : goldenSpecs()) {
        SystemParams p = ExperimentRunner::paramsFor(g.config);
        p.seed = kGoldenSeed;
        specs.push_back(RunSpec{p, kGoldenBenchmark, kGoldenCores});
    }
    // An alone run too, so the (config, workload, core-count) key space
    // is exercised, not just shared runs.
    SystemParams alone = ExperimentRunner::paramsFor(MemConfig::CwfRL);
    alone.seed = kGoldenSeed;
    specs.push_back(RunSpec{alone, kGoldenBenchmark, 1});
    return specs;
}

/** Bit-exact equality of two results (doubles compared with ==). */
void
expectIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.aggIpc, b.aggIpc);
    EXPECT_EQ(a.perCoreIpc, b.perCoreIpc);
    EXPECT_EQ(a.windowTicks, b.windowTicks);
    EXPECT_EQ(a.seconds, b.seconds);
    EXPECT_EQ(a.demandReads, b.demandReads);
    EXPECT_EQ(a.writebacks, b.writebacks);
    EXPECT_EQ(a.dramPowerMw, b.dramPowerMw);
    EXPECT_EQ(a.busUtilization, b.busUtilization);
    EXPECT_EQ(a.latency.queueTicks, b.latency.queueTicks);
    EXPECT_EQ(a.latency.serviceTicks, b.latency.serviceTicks);
    EXPECT_EQ(a.latency.totalTicks, b.latency.totalTicks);
    EXPECT_EQ(a.criticalWordLatencyTicks, b.criticalWordLatencyTicks);
    EXPECT_EQ(a.servedByFastFraction, b.servedByFastFraction);
    EXPECT_EQ(a.earlyWakeFraction, b.earlyWakeFraction);
    EXPECT_EQ(a.fastLeadTicks, b.fastLeadTicks);
    EXPECT_EQ(a.fastLeadP50, b.fastLeadP50);
    EXPECT_EQ(a.fastLeadP95, b.fastLeadP95);
    EXPECT_EQ(a.fastLeadP99, b.fastLeadP99);
    EXPECT_EQ(a.missLatencyP50, b.missLatencyP50);
    EXPECT_EQ(a.missLatencyP95, b.missLatencyP95);
    EXPECT_EQ(a.missLatencyP99, b.missLatencyP99);
    EXPECT_EQ(a.criticalWordDist, b.criticalWordDist);
    EXPECT_EQ(a.secondAccessGapTicks, b.secondAccessGapTicks);
    EXPECT_EQ(a.secondBeforeCompleteFraction,
              b.secondBeforeCompleteFraction);
    EXPECT_EQ(a.mshrFullStalls, b.mshrFullStalls);
    EXPECT_EQ(a.rowHitRate, b.rowHitRate);
}

/** Filename -> contents for every .json in @p dir. */
std::map<std::string, std::string>
slurpDir(const fs::path &dir)
{
    std::map<std::string, std::string> out;
    for (const auto &entry : fs::directory_iterator(dir)) {
        std::ifstream in(entry.path());
        std::ostringstream ss;
        ss << in.rdbuf();
        out[entry.path().filename().string()] = ss.str();
    }
    return out;
}

class ParallelSweep : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        // Small quanta so the sweep stays fast; both runners see the
        // same scale.
        setenv("HETSIM_READS", "600", 1);
        setenv("HETSIM_WARMUP", "200", 1);
    }
    void TearDown() override
    {
        unsetenv("HETSIM_READS");
        unsetenv("HETSIM_WARMUP");
        unsetenv("HETSIM_JSON_DIR");
    }
};

TEST_F(ParallelSweep, FourWorkersMatchOneWorkerBitExactly)
{
    const std::vector<RunSpec> specs = goldenSweepSpecs();

    ExperimentRunner serial(1);
    serial.prefetch(specs);

    ExperimentRunner parallel(4);
    EXPECT_EQ(parallel.jobs(), 4u);
    parallel.prefetch(specs);

    for (const auto &spec : specs) {
        const bool alone = spec.activeCores == 1;
        const RunResult &a =
            alone ? serial.aloneRun(spec.params, spec.bench)
                  : serial.sharedRun(spec.params, spec.bench);
        const RunResult &b =
            alone ? parallel.aloneRun(spec.params, spec.bench)
                  : parallel.sharedRun(spec.params, spec.bench);
        expectIdentical(a, b);
    }
}

TEST_F(ParallelSweep, JsonExportsAreByteIdenticalAcrossJobCounts)
{
    const std::vector<RunSpec> specs = goldenSweepSpecs();
    const fs::path base =
        fs::temp_directory_path() / "hetsim_parallel_sweep_test";
    const fs::path dir1 = base / "jobs1";
    const fs::path dir4 = base / "jobs4";
    fs::remove_all(base);
    fs::create_directories(dir1);
    fs::create_directories(dir4);

    setenv("HETSIM_JSON_DIR", dir1.c_str(), 1);
    {
        ExperimentRunner runner(1);
        runner.prefetch(specs);
    }
    setenv("HETSIM_JSON_DIR", dir4.c_str(), 1);
    {
        ExperimentRunner runner(4);
        runner.prefetch(specs);
    }
    unsetenv("HETSIM_JSON_DIR");

    const auto files1 = slurpDir(dir1);
    const auto files4 = slurpDir(dir4);
    EXPECT_EQ(files1.size(), specs.size());
    ASSERT_EQ(files1.size(), files4.size());
    for (const auto &[name, contents] : files1) {
        const auto it = files4.find(name);
        ASSERT_NE(it, files4.end()) << "missing export " << name;
        EXPECT_EQ(contents, it->second) << "export differs: " << name;
    }
    fs::remove_all(base);
}

// --------------------------------------------------------------------
// Sweep hardening: a worker exception must not abort the sweep.
// --------------------------------------------------------------------

class SweepFailure : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        setenv("HETSIM_READS", "600", 1);
        setenv("HETSIM_WARMUP", "200", 1);
    }
    void TearDown() override
    {
        setRunProbeForTest(nullptr);
        unsetenv("HETSIM_READS");
        unsetenv("HETSIM_WARMUP");
        unsetenv("HETSIM_JSON_DIR");
    }

    static std::vector<RunSpec>
    threeSpecs()
    {
        std::vector<RunSpec> specs;
        for (const MemConfig cfg :
             {MemConfig::BaselineDDR3, MemConfig::CwfRL,
              MemConfig::CwfRD}) {
            SystemParams p = ExperimentRunner::paramsFor(cfg);
            p.seed = kGoldenSeed;
            specs.push_back(RunSpec{p, kGoldenBenchmark, kGoldenCores});
        }
        return specs;
    }
};

TEST_F(SweepFailure, TransientWorkerThrowIsRetriedAndRecovered)
{
    // The CwfRL run throws on its first attempt only.  prefetch() leaves
    // it unmemoised; its accessor runs it again on the calling thread,
    // and the result is bit-identical to a clean runner's.
    static std::atomic<int> strikes{0};
    strikes = 0;
    setRunProbeForTest([](const RunSpec &spec) {
        if (spec.params.mem == MemConfig::CwfRL &&
            strikes.fetch_add(1) == 0)
            throw std::runtime_error("injected transient worker failure");
    });

    const std::vector<RunSpec> specs = threeSpecs();
    ExperimentRunner runner(2);
    runner.prefetch(specs); // must not throw
    EXPECT_EQ(strikes, 1);

    ExperimentRunner clean(1);
    clean.prefetch(specs);
    for (const auto &spec : specs) {
        expectIdentical(runner.sharedRun(spec.params, spec.bench),
                        clean.sharedRun(spec.params, spec.bench));
    }
    EXPECT_EQ(strikes, 3) << "the failed run re-ran once in its accessor "
                             "and once in the clean runner";
}

TEST_F(SweepFailure, PersistentFailureIsSurfacedWithoutAbortingSweep)
{
    const fs::path dir =
        fs::temp_directory_path() / "hetsim_sweep_failure_test";
    fs::remove_all(dir);
    fs::create_directories(dir);
    setenv("HETSIM_JSON_DIR", dir.c_str(), 1);

    static std::atomic<int> runs{0};
    runs = 0;
    setRunProbeForTest([](const RunSpec &spec) {
        runs.fetch_add(1);
        if (spec.params.mem == MemConfig::CwfRL)
            throw std::runtime_error("injected persistent worker failure");
    });

    const std::vector<RunSpec> specs = threeSpecs();
    ExperimentRunner runner(2);
    runner.prefetch(specs); // must not throw or abort
    EXPECT_EQ(runs, 3);

    // The other runs committed normally (cache hits: no probe re-entry)
    // and exported their reports; the failed run exported nothing.
    for (const auto &spec : specs) {
        if (spec.params.mem == MemConfig::CwfRL)
            continue;
        (void)runner.sharedRun(spec.params, spec.bench);
    }
    EXPECT_EQ(runs, 3);
    EXPECT_EQ(std::distance(fs::directory_iterator(dir),
                            fs::directory_iterator{}),
              2);

    // The failed run's accessor runs it again and surfaces its error.
    const RunSpec &failed = specs[1];
    ASSERT_EQ(failed.params.mem, MemConfig::CwfRL);
    try {
        (void)runner.sharedRun(failed.params, failed.bench);
        ADD_FAILURE() << "a persistent failure must reach the accessor";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("injected persistent"),
                  std::string::npos);
    }
    EXPECT_EQ(runs, 4);

    // The run stays unmemoised: once the fault clears, the next
    // accessor re-runs it successfully.
    setRunProbeForTest(nullptr);
    unsetenv("HETSIM_JSON_DIR");
    ExperimentRunner clean(1);
    expectIdentical(runner.sharedRun(failed.params, failed.bench),
                    clean.sharedRun(failed.params, failed.bench));
    fs::remove_all(dir);
}

TEST(SanitizedKeys, CollidingKeysGetDistinctFilenames)
{
    // The pre-hash sanitizer mapped every illegal byte to '_', so keys
    // differing only in punctuation collided ("a|b" vs "a_b" vs "a.b"
    // with '.' legal but '|'/'_' flattened).  The appended raw-key hash
    // keeps exports one-to-one; identical keys must still map to
    // identical names (memoisation and regeneration depend on that).
    const std::string a = sanitizedRunKey("cwf|rl|a8|r600");
    const std::string b = sanitizedRunKey("cwf_rl_a8_r600");
    const std::string c = sanitizedRunKey("cwf|rl|a8|r600");
    EXPECT_NE(a, b);
    EXPECT_EQ(a, c);
    // Stems (hash stripped) still collide — only the suffix saves us —
    // and stay filesystem-safe.
    const std::string stem_a = a.substr(0, a.rfind('-'));
    const std::string stem_b = b.substr(0, b.rfind('-'));
    EXPECT_EQ(stem_a, stem_b);
    for (char ch : a) {
        const bool ok = (ch >= 'a' && ch <= 'z') ||
                        (ch >= 'A' && ch <= 'Z') ||
                        (ch >= '0' && ch <= '9') || ch == '-' || ch == '.' ||
                        ch == '_';
        EXPECT_TRUE(ok) << "illegal filename byte: " << ch;
    }
}

TEST(TracedSweep, RunnerTakesOneWorkerWhileTracing)
{
    // The lifecycle trace is one ordered stream: a runner built while
    // the tracer records runs its sweep on one worker.
    auto &tracer = trace::Tracer::instance();
    tracer.enableInMemory(1024);
    EXPECT_EQ(ExperimentRunner(4).jobs(), 1u);
    tracer.disable();
    EXPECT_EQ(ExperimentRunner(4).jobs(), 4u);
}

/** Run a CwfRL/mcf System built now, then stop its cores and tick the
 *  memory side until every fill has completed. */
void
runAndDrain(bool drain)
{
    SystemParams p = ExperimentRunner::paramsFor(MemConfig::CwfRL);
    p.seed = kGoldenSeed;
    System system(p, workloads::suite::byName("mcf"), p.cores);
    RunConfig rc;
    rc.measureReads = 600;
    rc.warmupReads = 200;
    EXPECT_GT(runSimulation(system, rc).demandReads, 0u);
    auto &hier = system.hierarchy();
    auto &backend = system.backend();
    for (Tick t = system.now(); drain && (hier.mshrs().inUse() != 0 ||
                                          !backend.idle());
         ++t) {
        ASSERT_LT(t, system.now() + 10'000'000) << "fills failed to drain";
        hier.tick(t);
        backend.tick(t);
    }
    hier.checkDrained();
    dynamic_cast<cwf::CwfHeteroMemory &>(backend).checkDrained();
}

TEST(PerRunChecks, TwoArmedSystemsOnTwoThreadsDrainClean)
{
    // Each component owns its protocol-check state, so two armed runs
    // on two threads share nothing but the violation log.
    check::arm(check::Mode::Collect);
    std::thread a(runAndDrain, true);
    std::thread b(runAndDrain, true);
    a.join();
    b.join();
    EXPECT_TRUE(check::violations().empty()) << check::report();

    // The drain check is live: the same run stopped mid-flight leaves
    // fills in its MSHRs and its backend.
    runAndDrain(false);
    EXPECT_GT(check::count(check::Rule::MshrLeak), 0u) << check::report();
    check::disarm();
}

} // namespace
