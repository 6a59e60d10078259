/**
 * @file
 * Configuration-factory tests: every named configuration builds a
 * backend with the right device composition, layouts match the config,
 * names round-trip, and parameters that cannot run are refused before
 * any run starts.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>

#include "common/log.hh"
#include "sim/experiments.hh"
#include "sim/system.hh"
#include "sim/system_config.hh"
#include "workloads/suite.hh"

using namespace hetsim;
using namespace hetsim::sim;

namespace
{

TEST(MemConfigNames, RoundTrip)
{
    for (const MemConfig c : allMemConfigs())
        EXPECT_EQ(memConfigByName(toString(c)), c);
}

TEST(MemConfigNames, UnknownIsFatal)
{
    // A mistyped or retired name stops up front and lists the valid ones.
    setLogThrowOnError(true);
    for (const char *name : {"bogus", "HMC-CDF"}) {
        try {
            memConfigByName(name);
            ADD_FAILURE() << name << " was accepted";
        } catch (const SimError &e) {
            EXPECT_NE(e.message.find(name), std::string::npos) << e.message;
            EXPECT_NE(e.message.find("valid configurations: DDR3, "),
                      std::string::npos)
                << e.message;
            EXPECT_NE(e.message.find(", RL, "), std::string::npos)
                << e.message;
        }
    }
    setLogThrowOnError(false);
}

TEST(MemConfigNames, CoversElevenConfigs)
{
    EXPECT_EQ(allMemConfigs().size(), 11u);
}

TEST(BuildBackend, EveryConfigConstructs)
{
    for (const MemConfig c : allMemConfigs()) {
        SystemParams p;
        p.mem = c;
        const auto backend = buildBackend(p);
        ASSERT_NE(backend, nullptr) << toString(c);
        EXPECT_TRUE(backend->idle());
    }
}

TEST(BuildBackend, HomogeneousNames)
{
    SystemParams p;
    p.mem = MemConfig::BaselineDDR3;
    EXPECT_STREQ(buildBackend(p)->name(), "Homogeneous-DDR3");
    p.mem = MemConfig::HomoRLDRAM3;
    EXPECT_STREQ(buildBackend(p)->name(), "Homogeneous-RLDRAM3");
    p.mem = MemConfig::HomoLPDDR2;
    EXPECT_STREQ(buildBackend(p)->name(), "Homogeneous-LPDDR2");
}

TEST(BuildBackend, CwfConfigsUseExpectedLayouts)
{
    auto planned = [](MemConfig c, Addr line, unsigned word) {
        SystemParams p;
        p.mem = c;
        auto backend = buildBackend(p);
        return backend->plannedCriticalWord(line, word, true);
    };
    // Static configurations always pick word 0.
    EXPECT_EQ(planned(MemConfig::CwfRL, 0x1000, 5), 0u);
    EXPECT_EQ(planned(MemConfig::CwfRD, 0x1000, 5), 0u);
    EXPECT_EQ(planned(MemConfig::CwfDL, 0x1000, 5), 0u);
    // The oracle matches the request.
    EXPECT_EQ(planned(MemConfig::CwfRLOracle, 0x1000, 5), 5u);
    // Homogeneous systems do not fragment lines.
    EXPECT_EQ(planned(MemConfig::BaselineDDR3, 0x1000, 5),
              cwf::kNoFastWord);
    EXPECT_EQ(planned(MemConfig::PagePlacement, 0x1000, 5),
              cwf::kNoFastWord);
}

TEST(BuildBackend, RandomLayoutIsLineHashed)
{
    SystemParams p;
    p.mem = MemConfig::CwfRLRandom;
    auto backend = buildBackend(p);
    const unsigned a = backend->plannedCriticalWord(0x1000, 0, true);
    const unsigned b = backend->plannedCriticalWord(0x1000, 3, true);
    EXPECT_EQ(a, b) << "random layout depends on the line, not request";
}

TEST(SystemParams, CacheKeyDistinguishesConfigs)
{
    SystemParams a, b;
    a.mem = MemConfig::CwfRL;
    b.mem = MemConfig::CwfRD;
    EXPECT_NE(a.cacheKey(), b.cacheKey());
    b = a;
    EXPECT_EQ(a.cacheKey(), b.cacheKey());
    b.prefetcherEnabled = false;
    EXPECT_NE(a.cacheKey(), b.cacheKey());
    b = a;
    b.seed += 1;
    EXPECT_NE(a.cacheKey(), b.cacheKey());
}

TEST(SystemParamsDeathTest, CoreCountMustFitEightBitIds)
{
    const auto build = [](unsigned cores) {
        SystemParams p;
        p.cores = cores;
        System system(p, workloads::suite::byName("mcf"), 1);
    };
    EXPECT_EXIT(build(0), ::testing::ExitedWithCode(1),
                "SystemParams: cores must be in \\[1,256\\], got 0");
    // Core ids are 8-bit: core 256 would alias core 0.
    EXPECT_EXIT(build(257), ::testing::ExitedWithCode(1), "got 257");
    SystemParams widest;
    widest.cores = 256;
    validate(widest);
}

TEST(SystemParamsDeathTest, HotPagesNeedPagePlacement)
{
    // Hot pages elsewhere would be ignored, yet split the memo key.
    EXPECT_EXIT(
        {
            SystemParams p;
            p.mem = MemConfig::CwfRL;
            p.hotPages.insert(1);
            p.hotPages.insert(2);
            System system(p, workloads::suite::byName("mcf"), 1);
        },
        ::testing::ExitedWithCode(1),
        "SystemParams: 2 hot pages given to RL; only PagePlacement "
        "places hot pages");
    SystemParams pp;
    pp.mem = MemConfig::PagePlacement;
    pp.hotPages = {1, 2};
    validate(pp);
}

TEST(SystemParams, SweepValidatesEverySpecBeforeAnyRun)
{
    setenv("HETSIM_READS", "500", 1);
    ExperimentRunner runner(1);
    unsetenv("HETSIM_READS");
    std::atomic<unsigned> runs{0};
    setRunProbeForTest([&runs](const RunSpec &) { ++runs; });
    SystemParams bad = ExperimentRunner::paramsFor(MemConfig::BaselineDDR3);
    bad.hotPages = {7};
    setLogThrowOnError(true);
    EXPECT_THROW(
        runner.prefetch({{ExperimentRunner::paramsFor(MemConfig::CwfRL),
                          "mcf"},
                         {bad, "mcf"}}),
        SimError);
    setLogThrowOnError(false);
    setRunProbeForTest(nullptr);
    EXPECT_EQ(runs.load(), 0u) << "the good spec must not run either";
}

} // namespace
