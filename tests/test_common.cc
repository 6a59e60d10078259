/**
 * @file
 * Unit tests for the common substrate: logging, statistics primitives,
 * configuration store, environment knobs, table rendering and the
 * deterministic RNG.
 */

#include <gtest/gtest.h>

#include <set>

#include "check/checker.hh"
#include "common/config.hh"
#include "common/env.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/thread_pool.hh"
#include "common/trace.hh"
#include "sim/system.hh"
#include "workloads/suite.hh"

using namespace hetsim;

namespace
{

class ThrowingLog : public ::testing::Test
{
  protected:
    void SetUp() override { setLogThrowOnError(true); }
    void TearDown() override { setLogThrowOnError(false); }
};

// ---------------------------------------------------------------- log

TEST_F(ThrowingLog, PanicThrowsWithMessage)
{
    try {
        panic("bad thing ", 42);
        FAIL() << "panic returned";
    } catch (const SimError &e) {
        EXPECT_NE(e.message.find("bad thing 42"), std::string::npos);
    }
}

TEST_F(ThrowingLog, FatalThrows)
{
    EXPECT_THROW(fatal("user error"), SimError);
}

TEST_F(ThrowingLog, SimAssertPassesOnTrue)
{
    EXPECT_NO_THROW(sim_assert(1 + 1 == 2, "fine"));
}

TEST_F(ThrowingLog, SimAssertThrowsOnFalse)
{
    EXPECT_THROW(sim_assert(false, "broken"), SimError);
}

// -------------------------------------------------------------- stats

TEST(Counter, StartsAtZeroAndAccumulates)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c += 41;
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Average, MeanOfSamples)
{
    Average a;
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    a.sample(10);
    a.sample(20);
    a.sample(30);
    EXPECT_DOUBLE_EQ(a.mean(), 20.0);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.sum(), 60.0);
}

TEST(Histogram, BucketsAndClamping)
{
    Histogram h(10.0, 5); // [0,50), clamp above
    h.sample(0.0);
    h.sample(9.9);
    h.sample(10.0);
    h.sample(49.0);
    h.sample(1000.0); // clamped into last bucket
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(4), 2u);
    EXPECT_EQ(h.total(), 5u);
}

TEST(Histogram, PercentileInterpolates)
{
    Histogram h(1.0, 100);
    for (int i = 0; i < 100; ++i)
        h.sample(static_cast<double>(i));
    EXPECT_NEAR(h.percentile(0.5), 50.0, 1.0);
    EXPECT_NEAR(h.percentile(0.99), 99.0, 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
}

TEST(Histogram, MeanTracksSamples)
{
    Histogram h(5.0, 10);
    h.sample(10);
    h.sample(20);
    EXPECT_DOUBLE_EQ(h.mean(), 15.0);
    h.reset();
    EXPECT_EQ(h.total(), 0u);
}

TEST(StatGroup, RendersRegisteredStats)
{
    Counter c;
    Average a;
    c += 7;
    a.sample(3.5);
    StatGroup g("grp");
    g.addCounter("events", &c);
    g.addAverage("lat", &a);
    const std::string out = g.render();
    EXPECT_NE(out.find("grp.events 7"), std::string::npos);
    EXPECT_NE(out.find("grp.lat 3.5"), std::string::npos);
    const auto vals = g.values();
    EXPECT_DOUBLE_EQ(vals.at("events"), 7.0);
    EXPECT_DOUBLE_EQ(vals.at("lat"), 3.5);
}

// ------------------------------------------------------------- config

TEST(Config, ParseArgsSplitsKeyValue)
{
    Config cfg;
    const char *argv[] = {"prog", "sim.reads=100", "positional",
                          "mem.kind=RL"};
    const auto rest = cfg.parseArgs(4, argv);
    ASSERT_EQ(rest.size(), 1u);
    EXPECT_EQ(rest[0], "positional");
    EXPECT_EQ(cfg.getInt("sim.reads", 0), 100);
    EXPECT_EQ(cfg.getString("mem.kind", ""), "RL");
}

TEST(Config, TypedGettersWithFallback)
{
    Config cfg;
    cfg.set("a", "42");
    cfg.set("b", "2.5");
    cfg.set("c", "true");
    cfg.set("d", "off");
    EXPECT_EQ(cfg.getInt("a", 0), 42);
    EXPECT_EQ(cfg.getUint("a", 0), 42u);
    EXPECT_DOUBLE_EQ(cfg.getDouble("b", 0), 2.5);
    EXPECT_TRUE(cfg.getBool("c", false));
    EXPECT_FALSE(cfg.getBool("d", true));
    EXPECT_EQ(cfg.getInt("missing", -7), -7);
    EXPECT_FALSE(cfg.has("missing"));
}

TEST(Config, MalformedValueIsFatal)
{
    setLogThrowOnError(true);
    Config cfg;
    cfg.set("n", "abc");
    EXPECT_THROW(cfg.getInt("n", 0), SimError);
    EXPECT_THROW(cfg.getBool("n", false), SimError);
    setLogThrowOnError(false);
}

TEST(ConfigDeathTest, UnknownKeyIsFatalAndListsValidKeys)
{
    // A typo used to be ignored: sim.read=500 ran the default quantum.
    const char *typo[] = {"prog", "bench=mcf", "sim.read=500"};
    EXPECT_EXIT(
        {
            Config cfg;
            cfg.parseArgs(3, typo, {"bench", "sim.reads"});
        },
        ::testing::ExitedWithCode(1),
        "unknown config key 'sim.read'; valid keys: bench, sim.reads");
    const char *stray[] = {"prog", "mcf"};
    EXPECT_EXIT(
        {
            Config cfg;
            cfg.parseArgs(2, stray, {"bench", "sim.reads"});
        },
        ::testing::ExitedWithCode(1),
        "argument 'mcf' is not key=value; valid keys: bench, sim.reads");
}

// ---------------------------------------------------------------- env

TEST(Env, UnsetOrEmptyYieldsFallback)
{
    unsetenv("HETSIM_TEST_KNOB");
    EXPECT_EQ(envU64("HETSIM_TEST_KNOB", 7, 1), 7u);
    setenv("HETSIM_TEST_KNOB", "", 1);
    EXPECT_EQ(envU64("HETSIM_TEST_KNOB", 7, 1), 7u);
    unsetenv("HETSIM_TEST_KNOB");
}

TEST(Env, ParsesWholeValues)
{
    setenv("HETSIM_TEST_KNOB", "4000", 1);
    EXPECT_EQ(envU64("HETSIM_TEST_KNOB", 7, 1), 4000u);
    setenv("HETSIM_TEST_KNOB", "0", 1);
    EXPECT_EQ(envU64("HETSIM_TEST_KNOB", 7), 0u);
    unsetenv("HETSIM_TEST_KNOB");
}

TEST(EnvDeathTest, MalformedNumbersAreFatal)
{
    const auto u64 = [](const char *value) {
        setenv("HETSIM_TEST_KNOB", value, 1);
        envU64("HETSIM_TEST_KNOB", 7);
    };
    EXPECT_EXIT(u64("4k"), ::testing::ExitedWithCode(1),
                "HETSIM_TEST_KNOB: expected an unsigned integer, got '4k'");
    EXPECT_EXIT(u64("-1"), ::testing::ExitedWithCode(1),
                "expected an unsigned integer, got '-1'");
    EXPECT_EXIT(u64(" 8"), ::testing::ExitedWithCode(1),
                "expected an unsigned integer, got ' 8'");
    EXPECT_EXIT(u64("99999999999999999999"), ::testing::ExitedWithCode(1),
                "expected an unsigned integer");
}

TEST(Env, FlagsParseTheSixSpellings)
{
    unsetenv("HETSIM_TEST_KNOB");
    EXPECT_TRUE(envFlag("HETSIM_TEST_KNOB", true));
    EXPECT_FALSE(envFlag("HETSIM_TEST_KNOB", false));
    for (const char *on : {"1", "true", "on"}) {
        setenv("HETSIM_TEST_KNOB", on, 1);
        EXPECT_TRUE(envFlag("HETSIM_TEST_KNOB", false)) << on;
    }
    for (const char *off : {"0", "false", "off"}) {
        setenv("HETSIM_TEST_KNOB", off, 1);
        EXPECT_FALSE(envFlag("HETSIM_TEST_KNOB", true)) << off;
    }
    unsetenv("HETSIM_TEST_KNOB");
}

TEST(EnvDeathTest, UnknownFlagSpellingsAreFatal)
{
    const auto flag = [](const char *value) {
        setenv("HETSIM_TEST_KNOB", value, 1);
        envFlag("HETSIM_TEST_KNOB", false);
    };
    EXPECT_EXIT(flag("no"), ::testing::ExitedWithCode(1),
                "HETSIM_TEST_KNOB: expected 0\\|1\\|false\\|true\\|off\\|on, "
                "got 'no'");
    EXPECT_EXIT(flag("yes"), ::testing::ExitedWithCode(1), "got 'yes'");
    EXPECT_EXIT(flag("ON"), ::testing::ExitedWithCode(1), "got 'ON'");
    EXPECT_EXIT(flag("1 "), ::testing::ExitedWithCode(1), "got '1 '");
}

TEST(EnvDeathTest, CheckAndTraceGatesAreStrict)
{
    // An unknown spelling must stop the run, not arm the gate.
    EXPECT_EXIT(
        {
            setenv("HETSIM_CHECK", "no", 1);
            check::configureFromEnvironment();
        },
        ::testing::ExitedWithCode(1), "HETSIM_CHECK: expected .*, got 'no'");
    EXPECT_EXIT(
        {
            setenv("HETSIM_TRACE", "no", 1);
            trace::Tracer::instance().configureFromEnvironment();
        },
        ::testing::ExitedWithCode(1), "HETSIM_TRACE: expected .*, got 'no'");
}

TEST(EnvDeathTest, ProfileGateIsStrict)
{
    // Every "off" spelling leaves profiling off.
    sim::SystemParams params;
    params.cores = 1;
    const auto &mcf = workloads::suite::byName("mcf");
    for (const char *off : {"0", "false", "off"}) {
        setenv("HETSIM_PROFILE", off, 1);
        EXPECT_FALSE(sim::System(params, mcf, 1).profilingEnabled()) << off;
    }
    setenv("HETSIM_PROFILE", "on", 1);
    EXPECT_TRUE(sim::System(params, mcf, 1).profilingEnabled());
    unsetenv("HETSIM_PROFILE");
    EXPECT_EXIT(
        {
            setenv("HETSIM_PROFILE", "no", 1);
            sim::System system(params, mcf, 1);
        },
        ::testing::ExitedWithCode(1),
        "HETSIM_PROFILE: expected .*, got 'no'");
}

TEST(EnvDeathTest, CheckModeIsAbortOrCollect)
{
    // The mode is case-sensitive: "Collect" is neither mode.
    EXPECT_EXIT(
        {
            setenv("HETSIM_CHECK", "1", 1);
            setenv("HETSIM_CHECK_MODE", "Collect", 1);
            check::configureFromEnvironment();
        },
        ::testing::ExitedWithCode(1),
        "HETSIM_CHECK_MODE: expected abort\\|collect, got 'Collect'");
}

TEST(EnvDeathTest, JobsMustBeAPositiveInteger)
{
    EXPECT_EXIT(
        {
            setenv("HETSIM_JOBS", "0", 1);
            ThreadPool::jobsFromEnv();
        },
        ::testing::ExitedWithCode(1),
        "HETSIM_JOBS: expected an integer >= 1, got '0'");
    EXPECT_EXIT(
        {
            setenv("HETSIM_JOBS", "4cpus", 1);
            ThreadPool::jobsFromEnv();
        },
        ::testing::ExitedWithCode(1),
        "HETSIM_JOBS: expected an unsigned integer, got '4cpus'");
}

// -------------------------------------------------------------- table

TEST(Table, AlignedRendering)
{
    Table t({"name", "value"});
    t.addRow({"short", "1"});
    t.addRow({"a-much-longer-name", "2"});
    const std::string out = t.render();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("a-much-longer-name"), std::string::npos);
    EXPECT_NE(out.find("---"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvRendering)
{
    Table t({"a", "b"});
    t.addRow({"1", "2"});
    EXPECT_EQ(t.renderCsv(), "a,b\n1,2\n");
}

TEST(Table, NumericFormatters)
{
    EXPECT_EQ(Table::num(1.23456, 2), "1.23");
    EXPECT_EQ(Table::percent(0.129, 1), "12.9%");
}

TEST(Table, ArityMismatchPanics)
{
    setLogThrowOnError(true);
    Table t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), SimError);
    setLogThrowOnError(false);
}

// ---------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 4);
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(7);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        const auto v = r.below(10);
        ASSERT_LT(v, 10u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 10u); // all values reachable
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng r(13);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += r.chance(0.25);
    EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

/** The probabilities the threshold form must reproduce chance() for:
 *  edge values plus every suite profile's memory and write fraction. */
std::set<double>
thresholdProbabilities()
{
    std::set<double> ps = {0.0, 0x1.0p-53, 0.3, 0.5, 1.0 - 0x1.0p-53, 1.0};
    for (const auto &profile : workloads::suite::all()) {
        ps.insert(profile.memFraction);
        ps.insert(profile.writeFraction);
    }
    return ps;
}

TEST(Rng, ThresholdDrawMatchesChance)
{
    for (const double p : thresholdProbabilities()) {
        Rng a(2024), b(2024);
        const Rng::Threshold threshold(p);
        unsigned mismatches = 0, hits = 0;
        for (int i = 0; i < 1000000; ++i) {
            const bool fast = a.chance(threshold);
            mismatches += fast != b.chance(p);
            hits += fast;
        }
        EXPECT_EQ(mismatches, 0u) << "p = " << p;
        EXPECT_EQ(a.next(), b.next()) << "one draw per chance, p = " << p;
        if (p == 0.0) {
            EXPECT_EQ(hits, 0u);
        }
        if (p == 1.0) {
            EXPECT_EQ(hits, 1000000u);
        }
    }
}

TEST(Rng, ThresholdCutIsExactAtItsBoundary)
{
    // uniform() is x * 2^-53 for the draw x = next() >> 11: the cut is
    // the first x for which uniform() < p fails.
    const auto below = [](std::uint64_t x, double p) {
        return static_cast<double>(x) * 0x1.0p-53 < p;
    };
    for (const double p : thresholdProbabilities()) {
        const std::uint64_t cut = Rng::Threshold(p).cut();
        ASSERT_LE(cut, 1ULL << 53) << "p = " << p;
        if (cut > 0) {
            EXPECT_TRUE(below(cut - 1, p)) << "p = " << p;
        }
        if (cut < (1ULL << 53)) {
            EXPECT_FALSE(below(cut, p)) << "p = " << p;
        }
    }
    EXPECT_EQ(Rng::Threshold(0.0).cut(), 0u) << "never";
    EXPECT_EQ(Rng::Threshold(1.0).cut(), 1ULL << 53) << "always";
    EXPECT_EQ(Rng::Threshold(0x1.0p-53).cut(), 1u);
    EXPECT_EQ(Rng::Threshold(1.0 - 0x1.0p-53).cut(), (1ULL << 53) - 1);
    EXPECT_EQ(Rng::Threshold(-0.5).cut(), 0u);
    EXPECT_EQ(Rng::Threshold(2.0).cut(), 1ULL << 53);
}

} // namespace
