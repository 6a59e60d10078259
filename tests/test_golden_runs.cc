/**
 * @file
 * Golden-run regression: each of the paper's five headline configurations
 * (mcf on 8 cores) plus a small workload matrix (goldenMatrixSpecs) and
 * one RL run at a nonzero critical-word parity-fail rate (ParityFallback)
 * is run with a pinned seed/workload/window, reduced to a canonical
 * digest and compared byte-for-byte against `tests/golden/<key>.json`.
 * Any model change that shifts timing, power or CWF behaviour shows up
 * as a digest diff; intended changes are blessed with
 * `scripts/regen_golden.sh` (which reruns this binary with
 * HETSIM_REGEN_GOLDEN=1 to rewrite the files).
 *
 * Each configuration is also run twice in-process and must produce a
 * bit-identical digest AND bit-identical full JSON report — the
 * determinism guarantee the digest comparison rests on — and must come
 * out byte-identical with the main loop self-profiled and with its
 * warmup stepped by hand one tick at a time.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json.hh"
#include "sim/golden.hh"
#include "sim/report.hh"
#include "sim/system.hh"
#include "workloads/suite.hh"

using namespace hetsim;
using namespace hetsim::sim;

namespace
{

std::string
goldenPath(const GoldenSpec &spec)
{
    return std::string(HETSIM_GOLDEN_DIR) + "/" + spec.key + ".json";
}

bool
regenRequested()
{
    const char *env = std::getenv("HETSIM_REGEN_GOLDEN");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
}

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

/** The paper configurations followed by the workload matrix. */
const std::vector<GoldenSpec> &
allSpecs()
{
    static const std::vector<GoldenSpec> all = [] {
        std::vector<GoldenSpec> v = goldenSpecs();
        const auto &matrix = goldenMatrixSpecs();
        v.insert(v.end(), matrix.begin(), matrix.end());
        return v;
    }();
    return all;
}

/** FNV-1a of a spec key. */
std::uint64_t
keyHash(const std::string &key)
{
    std::uint64_t hash = 1469598103934665603ULL;
    for (const char c : key) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ULL;
    }
    return hash;
}

/**
 * Test parameter naming one golden spec by its key.  gtest prints a
 * parameter's raw bytes into each ctest name, so the layout has no
 * implicit padding, every byte is set, and the bytes depend on the spec
 * alone: the names come out the same in every build, and adding or
 * deleting a spec renames no other case.
 */
struct GoldenCase
{
    MemConfig config; ///< leads, so the printed bytes start with it
    std::uint8_t zero[7] = {};
    std::uint64_t keyHash = 0; ///< keyHash(spec.key)
};
static_assert(sizeof(GoldenCase) == 16, "GoldenCase must have no padding");

std::vector<GoldenCase>
casesOf(bool matrix)
{
    const auto &specs = matrix ? goldenMatrixSpecs() : goldenSpecs();
    std::vector<GoldenCase> out;
    for (const GoldenSpec &spec : specs)
        out.push_back(GoldenCase{spec.config, {}, keyHash(spec.key)});
    return out;
}

/** The spec a case names. */
const GoldenSpec &
specOf(const GoldenCase &c)
{
    for (const GoldenSpec &spec : allSpecs()) {
        if (keyHash(spec.key) == c.keyHash)
            return spec;
    }
    throw std::logic_error("no golden spec for a case");
}

class GoldenRun : public ::testing::TestWithParam<GoldenCase>
{
  protected:
    static const GoldenSpec &current() { return specOf(GetParam()); }
};

/** Compare @p digest byte for byte with the checked-in baseline of
 *  @p spec, or rewrite that baseline under HETSIM_REGEN_GOLDEN. */
void
expectBaseline(const GoldenSpec &spec, const std::string &digest)
{
    const std::string path = goldenPath(spec);
    if (regenRequested()) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << digest;
        ASSERT_TRUE(out.good()) << "short write to " << path;
        GTEST_SKIP() << "regenerated " << path;
    }

    const std::string expected = readFile(path);
    ASSERT_FALSE(expected.empty())
        << path << " missing; run scripts/regen_golden.sh";
    EXPECT_EQ(expected, digest)
        << "golden digest drift for " << spec.key
        << "; if the model change is intended, bless it with "
           "scripts/regen_golden.sh";
}

TEST_P(GoldenRun, DigestMatchesCheckedInBaseline)
{
    const GoldenSpec &spec = current();
    const GoldenOutcome got = runGolden(spec);

    std::string error;
    ASSERT_TRUE(jsonValid(got.digest, &error)) << error;
    ASSERT_TRUE(jsonValid(got.fullReport, &error)) << error;
    expectBaseline(spec, got.digest);
}

TEST_P(GoldenRun, IdenticalSeedsAreBitIdentical)
{
    const GoldenSpec &spec = current();
    const GoldenOutcome a = runGolden(spec);
    const GoldenOutcome b = runGolden(spec);
    EXPECT_EQ(a.digest, b.digest) << spec.key;
    EXPECT_EQ(a.fullReport, b.fullReport)
        << spec.key << ": full JSON report must be byte-stable across "
                       "same-seed runs";
}

TEST_P(GoldenRun, PlainAndProfiledTicksAreBitIdentical)
{
    // Compares the plain tick against the HETSIM_PROFILE-timed tick, the
    // main loop's two stepping paths: both must produce the same digest
    // AND the same full JSON report, byte for byte.  (runGolden
    // constructs its System fresh, so the knob is exercised exactly the
    // way a user sets it.)
    const GoldenSpec &spec = current();
    setenv("HETSIM_PROFILE", "1", 1);
    const GoldenOutcome profiled = runGolden(spec);
    setenv("HETSIM_PROFILE", "0", 1);
    const GoldenOutcome plain = runGolden(spec);
    unsetenv("HETSIM_PROFILE");
    EXPECT_EQ(profiled.digest, plain.digest)
        << spec.key
        << ": digest differs between the plain and the "
           "HETSIM_PROFILE-timed tick";
    EXPECT_EQ(profiled.fullReport, plain.fullReport)
        << spec.key
        << ": JSON report differs between the plain and the "
           "HETSIM_PROFILE-timed tick";
}

TEST_P(GoldenRun, BatchedAndPerTickCoresAreBitIdentical)
{
    // Compares a golden run whose warmup is stepped here one
    // System::tick() at a time (and measured by runSimulation from that
    // state) against runGolden, whose runSimulation does the warmup
    // too: runSimulation steps every core on every tick, so the two are
    // byte-identical.
    const GoldenSpec &spec = current();
    System system(goldenParams(spec),
                  workloads::suite::byName(spec.benchmark), kGoldenCores);
    const auto &stats = system.hierarchy().stats();
    while (stats.demandCompletions.value() < spec.run.warmupReads &&
           system.now() < spec.run.maxWarmupTicks)
        system.tick();
    RunConfig measure = spec.run;
    measure.warmupReads = 0;
    const RunResult r = runSimulation(system, measure);

    const GoldenOutcome expected = runGolden(spec);
    EXPECT_EQ(renderGoldenDigest(system, r, spec.run), expected.digest)
        << spec.key
        << ": digest differs between a hand-stepped warmup and "
           "runSimulation's warmup";
    EXPECT_EQ(renderReportJson(system, r), expected.fullReport)
        << spec.key
        << ": JSON report differs between a hand-stepped warmup and "
           "runSimulation's warmup";
}

std::string
caseName(const ::testing::TestParamInfo<GoldenCase> &info)
{
    return specOf(info.param).key;
}

INSTANTIATE_TEST_SUITE_P(PaperConfigs, GoldenRun,
                         ::testing::ValuesIn(casesOf(false)), caseName);

INSTANTIATE_TEST_SUITE_P(Matrix, GoldenRun,
                         ::testing::ValuesIn(casesOf(true)), caseName);

TEST(ParityFallback, DigestMatchesCheckedInBaseline)
{
    // Section 4.2.3's fallback, the one golden run with a nonzero fault
    // rate: a critical word that fails byte parity cancels its early
    // wake and is served once the SECDED-protected rest of the line
    // arrives.
    const GoldenSpec spec{MemConfig::CwfRL, "parity_fallback"};
    SystemParams params = goldenParams(spec);
    params.fault.parityFailRate = 0.05;
    System system(params, workloads::suite::byName(spec.benchmark),
                  kGoldenCores);
    const RunResult r = runSimulation(system, spec.run);
    EXPECT_GT(system.hierarchy().stats().parityBlockedWakes.value(), 0u)
        << "the pinned rate must block some early wakes";
    expectBaseline(spec, renderGoldenDigest(system, r, spec.run));
}

TEST(GoldenSuite, CoversFiveConfigs)
{
    EXPECT_EQ(goldenSpecs().size(), 5u);
}

TEST(GoldenSuite, InjectedBackendMatchesTheBuiltOne)
{
    // Handing System the backend buildBackend(params) makes is the same
    // stack as letting the constructor build it.
    const auto &matrix = goldenMatrixSpecs();
    const auto spec = std::find_if(
        matrix.begin(), matrix.end(), [](const GoldenSpec &s) {
            return std::string(s.key) == "matrix_libquantum_rl";
        });
    ASSERT_NE(spec, matrix.end());
    const SystemParams params = goldenParams(*spec);
    System system(params, workloads::suite::byName(spec->benchmark),
                  kGoldenCores, buildBackend(params));
    const RunResult r = runSimulation(system, spec->run);
    EXPECT_EQ(renderGoldenDigest(system, r, spec->run),
              readFile(goldenPath(*spec)));
}

} // namespace
