/**
 * @file
 * Critical-word parity-fault tests (DESIGN.md section 14):
 *
 *  - hash-stream determinism: same seed => same failing reads,
 *    different seed => different ones, whatever the arrival tick; a
 *    zero rate makes no draw; rereads of a line draw afresh and the
 *    failing share tracks the rate;
 *  - the fallback: every parity fail cancels its early wake and is
 *    resolved exactly once, when the line completes, with the protocol
 *    checker armed and clean;
 *  - determinism at a nonzero rate: same-seed runs produce bit-identical
 *    digests and full reports, and the plain and the self-profiled tick
 *    agree byte for byte;
 *  - zero-rate guarantee: an explicit zero rate leaves all five golden
 *    digests byte-identical to the checked-in baselines, and no
 *    environment variable reaches a run's fault knob.
 *
 * The pinned nonzero-rate golden run is ParityFallback in
 * test_golden_runs.cc.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/checker.hh"
#include "core/hetero_memory.hh"
#include "dram/dram_params.hh"
#include "fault/fault_model.hh"
#include "sim/golden.hh"
#include "sim/system.hh"
#include "workloads/suite.hh"

using namespace hetsim;
using namespace hetsim::cwf;
using namespace hetsim::sim;
using dram::DeviceParams;
using check::Mode;

namespace
{

// ------------------------------------------------------ model-level

/** Fault ids drawn for three reads of each of 32 lines (0 = passed). */
std::vector<std::uint64_t>
observe(fault::FaultModel &model)
{
    std::vector<std::uint64_t> out;
    for (std::uint64_t line = 0; line < 32; ++line) {
        // Three reads per line so the per-line sequence numbers (the
        // re-draw stream) are part of the comparison.
        for (int rep = 0; rep < 3; ++rep)
            out.push_back(model.onCriticalRead(line << kLineShift, 100));
    }
    return out;
}

fault::FaultParams
rate(double r)
{
    fault::FaultParams p;
    p.parityFailRate = r;
    return p;
}

TEST(FaultModel, SameSeedSameFaultSites)
{
    fault::FaultModel a(rate(0.3), 7);
    fault::FaultModel b(rate(0.3), 7);
    EXPECT_EQ(observe(a), observe(b));
}

TEST(FaultModel, DifferentSeedMovesFaultSites)
{
    fault::FaultModel a(rate(0.3), 7);
    fault::FaultModel b(rate(0.3), 8);
    EXPECT_NE(observe(a), observe(b));
}

TEST(FaultModel, ZeroRateModelIsDisabled)
{
    fault::FaultModel model(rate(0.0), 7);
    EXPECT_FALSE(model.enabled());
    EXPECT_EQ(model.onCriticalRead(0x1000, 0), 0u);
}

TEST(FaultModel, FastPathParityIsDetectOnly)
{
    // At rate 1 every critical word fails parity (the model asserts that
    // ByteParity flags each flip) and gets a fresh fault id to resolve.
    fault::FaultModel model(rate(1.0), 3);
    for (std::uint64_t line = 0; line < 16; ++line)
        EXPECT_EQ(model.onCriticalRead(line << kLineShift, 0), line + 1);
}

TEST(FaultModel, DrawIgnoresTheArrivalTick)
{
    // The draw hashes (seed, line, per-line sequence number) only, so a
    // read that arrives at another tick fails or passes the same way.
    fault::FaultModel a(rate(0.3), 7);
    fault::FaultModel b(rate(0.3), 7);
    for (std::uint64_t line = 0; line < 64; ++line) {
        EXPECT_EQ(a.onCriticalRead(line << kLineShift, 100),
                  b.onCriticalRead(line << kLineShift, 100 + 37 * line))
            << "line " << line;
    }
}

TEST(FaultModel, RereadsOfALineDrawAfresh)
{
    // Faults are transient: each read of one line is a new draw, so at
    // rate 0.5 the same line both fails and passes over 64 reads.
    fault::FaultModel model(rate(0.5), 11);
    unsigned failed = 0;
    for (int rep = 0; rep < 64; ++rep)
        failed += model.onCriticalRead(0x4000, 0) != 0;
    EXPECT_GT(failed, 0u);
    EXPECT_LT(failed, 64u);
}

TEST(FaultModel, FailFractionTracksTheRate)
{
    // 4096 reads over 1024 lines at rate 0.25: the failing share stays
    // within a few standard deviations (0.0068) of the rate.
    fault::FaultModel model(rate(0.25), 5);
    unsigned failed = 0;
    constexpr unsigned kReads = 4096;
    for (unsigned i = 0; i < kReads; ++i) {
        const Addr line = static_cast<Addr>(i % 1024) << kLineShift;
        failed += model.onCriticalRead(line, i) != 0;
    }
    const double share = static_cast<double>(failed) / kReads;
    EXPECT_GT(share, 0.22);
    EXPECT_LT(share, 0.28);
}

TEST(FaultParams, CacheKeyChangesOnlyForNonDefaultKnobs)
{
    SystemParams base;
    base.mem = MemConfig::CwfRL;
    const std::string clean = base.cacheKey();
    EXPECT_EQ(clean.find("/par"), std::string::npos)
        << "a zero parity-fail rate must not perturb memo keys";

    SystemParams faulted = base;
    faulted.fault.parityFailRate = 0.01;
    const std::string dirty = faulted.cacheKey();
    EXPECT_NE(dirty.find("/par"), std::string::npos);
    EXPECT_NE(clean, dirty);
}

TEST(FaultParams, CacheKeyDistinguishesParityFailRates)
{
    // Memoised runs at two critical-word parity-fail rates must not
    // share a cache entry.
    SystemParams low;
    low.mem = MemConfig::CwfRL;
    low.fault.parityFailRate = 0.01;
    SystemParams high = low;
    high.fault.parityFailRate = 0.25;
    EXPECT_NE(low.cacheKey(), high.cacheKey());
}

TEST(FaultParams, EnvironmentDoesNotReachTheRun)
{
    // The fault knob comes from SystemParams alone: a stray
    // HETSIM_FAULT_* variable changes neither the memo key nor the run.
    setenv("HETSIM_FAULT_TRANSIENT", "0.25", 1);
    setenv("HETSIM_FAULT_SCOPE", "fastslow", 1);
    const std::string key = SystemParams{}.cacheKey();
    SystemParams params;
    params.mem = MemConfig::CwfRL;
    System system(params, workloads::suite::byName("mcf"), 2);
    RunConfig rc;
    rc.measureReads = 200;
    rc.warmupReads = 50;
    runSimulation(system, rc);
    unsetenv("HETSIM_FAULT_TRANSIENT");
    unsetenv("HETSIM_FAULT_SCOPE");
    EXPECT_EQ(key.find("/par"), std::string::npos) << key;
    EXPECT_EQ(system.hierarchy().stats().parityBlockedWakes.value(), 0u);
}

// ------------------------------------------------ backend fallback

class ParityFault : public ::testing::Test
{
  protected:
    void SetUp() override { check::arm(Mode::Collect); }
    void TearDown() override { check::disarm(); }
};

TEST_F(ParityFault, EachFailIsResolvedOnceWhenTheLineCompletes)
{
    CwfHeteroMemory::Params p;
    p.configName = "RL";
    p.slowDevice = DeviceParams::lpddr2_800();
    p.fastDevice = DeviceParams::rldram3();
    p.fault.parityFailRate = 0.3;
    p.seed = 7;
    CwfHeteroMemory mem(p, std::make_unique<StaticLayout>());

    unsigned criticals = 0, failed = 0, completions = 0;
    mem.setCallbacks(MemoryBackend::Callbacks{
        [&](std::uint64_t, Tick, bool parity_ok) {
            criticals += 1;
            failed += !parity_ok;
        },
        [&](std::uint64_t, Tick) { completions += 1; },
    });
    constexpr unsigned kFills = 64;
    unsigned issued = 0;
    Tick t = 0;
    while (issued < kFills || !mem.idle()) {
        if (issued < kFills && t % 40 == 0 &&
            mem.canAcceptFill(issued * 64ULL)) {
            mem.requestFill(
                MemoryBackend::FillRequest{issued * 64ULL, 0, false, 0,
                                           issued},
                t);
            issued += 1;
        }
        mem.tick(t);
        t += 1;
        ASSERT_LT(t, 10'000'000u) << "fills failed to drain";
    }

    EXPECT_EQ(criticals, kFills);
    EXPECT_EQ(completions, kFills);
    EXPECT_GT(failed, 0u);
    EXPECT_LT(failed, kFills);
    EXPECT_EQ(mem.parityErrorsInjected().value(), failed);

    mem.checkDrained();
    EXPECT_TRUE(check::violations().empty())
        << check::report();
}

// --------------------------------------------- system-level goldens

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return {};
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** goldenParams(spec) at parity-fail rate @p r. */
SystemParams
faulted(const GoldenSpec &spec, double r)
{
    SystemParams params = goldenParams(spec);
    params.fault.parityFailRate = r;
    return params;
}

constexpr double kNonzero = 0.02;

TEST(FaultedGolden, PlainAndProfiledTicksBitIdenticalAtNonzeroRate)
{
    // The plain tick and the HETSIM_PROFILE-timed tick, the main loop's
    // two stepping paths, with parity faults injected: profiling only
    // observes, so digest and full report agree byte for byte.
    const GoldenSpec &spec = goldenSpecs()[2]; // cwf_rl
    const SystemParams params = faulted(spec, kNonzero);
    setenv("HETSIM_PROFILE", "1", 1);
    const GoldenOutcome profiled = runGolden(spec, params);
    setenv("HETSIM_PROFILE", "0", 1);
    const GoldenOutcome plain = runGolden(spec, params);
    unsetenv("HETSIM_PROFILE");
    EXPECT_EQ(profiled.digest, plain.digest)
        << "faulted digest differs between the plain and the "
           "HETSIM_PROFILE-timed tick";
    EXPECT_EQ(profiled.fullReport, plain.fullReport)
        << "faulted JSON report differs between the plain and the "
           "HETSIM_PROFILE-timed tick";
}

TEST(FaultedGolden, SameSeedRunsBitIdenticalAtNonzeroRate)
{
    const GoldenSpec &spec = goldenSpecs()[2]; // cwf_rl
    const SystemParams params = faulted(spec, kNonzero);
    const GoldenOutcome a = runGolden(spec, params);
    const GoldenOutcome b = runGolden(spec, params);
    EXPECT_EQ(a.digest, b.digest)
        << "two faulted runs with the same SystemParams differ in digest";
    EXPECT_EQ(a.fullReport, b.fullReport)
        << "two faulted runs with the same SystemParams differ in JSON "
           "report";
}

TEST(FaultedGolden, ExplicitZeroRateKeepsAllGoldenDigests)
{
    const char *regen = std::getenv("HETSIM_REGEN_GOLDEN");
    if (regen != nullptr && regen[0] != '\0' && regen[0] != '0')
        GTEST_SKIP() << "baselines being regenerated";
    // An explicit zero must be indistinguishable from no fault model:
    // all five digests stay byte-identical to the checked-in baselines.
    for (const auto &spec : goldenSpecs()) {
        const GoldenOutcome got = runGolden(spec, faulted(spec, 0.0));
        const std::string path =
            std::string(HETSIM_GOLDEN_DIR) + "/" + spec.key + ".json";
        const std::string expected = readFile(path);
        ASSERT_FALSE(expected.empty()) << path << " missing";
        EXPECT_EQ(expected, got.digest)
            << spec.key
            << ": an explicit zero parity-fail rate moved the checked-in "
               "digest";
    }
}

} // namespace
