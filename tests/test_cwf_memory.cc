/**
 * @file
 * CwfHeteroMemory integration tests: two-part fills with the critical
 * word arriving first (and by a lead of tens of CPU cycles), callback
 * ordering, writeback splitting with adaptive re-organisation, parity
 * fault injection, aggregated-channel routing, and the homogeneous
 * backend's single-part behaviour.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/hetero_memory.hh"
#include "dram/dram_params.hh"

using namespace hetsim;
using namespace hetsim::cwf;
using dram::DeviceParams;

namespace
{

CwfHeteroMemory::Params
rlParams()
{
    CwfHeteroMemory::Params p;
    p.configName = "RL";
    p.slowDevice = DeviceParams::lpddr2_800();
    p.fastDevice = DeviceParams::rldram3();
    return p;
}

struct Event
{
    enum Kind { Critical, Complete } kind;
    std::uint64_t mshrId;
    Tick at;
    bool parityOk;
};

class CwfMemoryTest : public ::testing::Test
{
  protected:
    void
    build(CwfHeteroMemory::Params p,
          std::unique_ptr<LineLayout> layout =
              std::make_unique<StaticLayout>())
    {
        mem = std::make_unique<CwfHeteroMemory>(p, std::move(layout));
        mem->setCallbacks(MemoryBackend::Callbacks{
            [this](std::uint64_t id, Tick at, bool ok) {
                events.push_back(Event{Event::Critical, id, at, ok});
            },
            [this](std::uint64_t id, Tick at) {
                events.push_back(Event{Event::Complete, id, at, true});
            },
        });
    }

    void
    run(Tick from, Tick to)
    {
        for (Tick t = from; t <= to; ++t)
            mem->tick(t);
    }

    std::unique_ptr<CwfHeteroMemory> mem;
    std::vector<Event> events;
};

TEST_F(CwfMemoryTest, FillProducesCriticalThenComplete)
{
    build(rlParams());
    mem->requestFill(MemoryBackend::FillRequest{0x1000, 0, false, 0, 77},
                     0);
    run(0, 20000);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].kind, Event::Critical);
    EXPECT_EQ(events[0].mshrId, 77u);
    EXPECT_TRUE(events[0].parityOk);
    EXPECT_EQ(events[1].kind, Event::Complete);
    EXPECT_EQ(events[1].mshrId, 77u);
    EXPECT_LE(events[0].at, events[1].at);
    EXPECT_TRUE(mem->idle());
}

TEST_F(CwfMemoryTest, CriticalWordLeadsByTensOfCpuCycles)
{
    build(rlParams());
    mem->requestFill(MemoryBackend::FillRequest{0x1000, 0, false, 0, 1},
                     0);
    run(0, 20000);
    ASSERT_EQ(events.size(), 2u);
    const Tick lead = events[1].at - events[0].at;
    // The paper reports ~70 CPU cycles average lead; even unloaded, the
    // RLDRAM fragment must beat the LPDDR2 fragment by tens of cycles.
    EXPECT_GE(lead, 30u) << "fast fragment must lead substantially";
    EXPECT_LE(lead, 1000u);
}

TEST_F(CwfMemoryTest, ManyFillsAllComplete)
{
    build(rlParams());
    unsigned injected = 0;
    Tick t = 0;
    while (injected < 64 || !mem->idle()) {
        if (injected < 64 && t % 40 == 0 &&
            mem->canAcceptFill(injected * 64ULL)) {
            mem->requestFill(MemoryBackend::FillRequest{
                                 injected * 64ULL, 0, false, 0, injected},
                             t);
            injected += 1;
        }
        mem->tick(t);
        t += 1;
        ASSERT_LT(t, 10'000'000u);
    }
    unsigned criticals = 0, completes = 0;
    for (const auto &e : events) {
        criticals += e.kind == Event::Critical;
        completes += e.kind == Event::Complete;
    }
    EXPECT_EQ(criticals, 64u);
    EXPECT_EQ(completes, 64u);
}

TEST_F(CwfMemoryTest, CallbackOrderPerFillIsCriticalFirst)
{
    build(rlParams());
    for (unsigned i = 0; i < 16; ++i) {
        mem->requestFill(MemoryBackend::FillRequest{i * 64ULL, 0, false,
                                                    0, i},
                         0);
    }
    run(0, 100000);
    std::map<std::uint64_t, unsigned> state; // 0 none, 1 critical, 2 done
    for (const auto &e : events) {
        if (e.kind == Event::Critical) {
            EXPECT_EQ(state[e.mshrId], 0u);
            state[e.mshrId] = 1;
        } else {
            EXPECT_EQ(state[e.mshrId], 1u)
                << "complete before critical for " << e.mshrId;
            state[e.mshrId] = 2;
        }
    }
    for (const auto &[id, st] : state)
        EXPECT_EQ(st, 2u) << id;
}

TEST_F(CwfMemoryTest, WritebackGoesToBothParts)
{
    build(rlParams());
    ASSERT_TRUE(mem->canAcceptWriteback(0x2000));
    mem->requestWriteback(0x2000, 0);
    run(0, 20000);
    EXPECT_TRUE(events.empty()) << "writes complete silently";
    EXPECT_TRUE(mem->idle());
    // Both the slow channel and the fast sub-channel saw one write.
    const std::uint64_t line = 0x2000 >> kLineShift;
    const unsigned ch = static_cast<unsigned>(line % 4);
    EXPECT_EQ(mem->slowChannel(ch).stats().writes.value(), 1u);
    EXPECT_EQ(mem->fastChannel().sub(ch).stats().writes.value(), 1u);
}

TEST_F(CwfMemoryTest, WritebackCommitsAdaptiveLayout)
{
    auto layout = std::make_unique<AdaptiveLayout>();
    AdaptiveLayout *raw = layout.get();
    build(rlParams(), std::move(layout));
    EXPECT_EQ(mem->plannedCriticalWord(0x3000, 6, true), 0u);
    mem->requestWriteback(0x3000, 0);
    EXPECT_EQ(mem->plannedCriticalWord(0x3000, 1, true), 6u);
    EXPECT_EQ(raw->remaps().value(), 1u);
    run(0, 20000);
}

TEST_F(CwfMemoryTest, ParityErrorInjection)
{
    auto p = rlParams();
    p.fault.parityFailRate = 1.0; // every fast fragment fails
    build(p);
    mem->requestFill(MemoryBackend::FillRequest{0x1000, 0, false, 0, 5},
                     0);
    run(0, 20000);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].kind, Event::Critical);
    EXPECT_FALSE(events[0].parityOk);
    EXPECT_EQ(mem->parityErrorsInjected().value(), 1u);
}

TEST_F(CwfMemoryTest, FastSubChannelShadowsSlowChannel)
{
    build(rlParams());
    // Lines mapping to slow channel k must use fast sub-channel k.
    for (std::uint64_t line = 0; line < 16; ++line) {
        mem->requestFill(MemoryBackend::FillRequest{
                             line << kLineShift, 0, false, 0, line},
                         0);
    }
    run(0, 100000);
    for (unsigned ch = 0; ch < 4; ++ch) {
        EXPECT_EQ(mem->slowChannel(ch).stats().demandReads.value(), 4u);
        EXPECT_EQ(mem->fastChannel().sub(ch).stats().demandReads.value(),
                  4u);
    }
}

TEST_F(CwfMemoryTest, PowerAndLatencyAccountingProduceValues)
{
    build(rlParams());
    for (unsigned i = 0; i < 32; ++i) {
        mem->requestFill(MemoryBackend::FillRequest{i * 64ULL, 0, false,
                                                    0, i},
                         0);
    }
    run(0, 200000);
    EXPECT_GT(mem->dramPowerMw(200000), 0.0);
    EXPECT_GT(mem->busUtilization(200000), 0.0);
    const auto split = mem->latencySplit();
    EXPECT_GT(split.totalTicks, 0.0);
    EXPECT_NEAR(split.totalTicks, split.queueTicks + split.serviceTicks,
                1e-6);
    EXPECT_GT(mem->fastFragmentLatency().count(), 0u);
    EXPECT_LT(mem->fastFragmentLatency().mean(),
              mem->slowFragmentLatency().mean());
}

TEST_F(CwfMemoryTest, DedicatedCommandBusesAblation)
{
    // Fig. 5b organisation: four dedicated controllers, no shared-bus
    // contention; fills must still complete with the same protocol.
    auto p = rlParams();
    p.sharedCommandBus = false;
    build(p);
    for (unsigned i = 0; i < 16; ++i) {
        mem->requestFill(MemoryBackend::FillRequest{i * 64ULL, 0, false,
                                                    0, i},
                         0);
    }
    run(0, 100000);
    unsigned completes = 0;
    for (const auto &e : events)
        completes += e.kind == Event::Complete;
    EXPECT_EQ(completes, 16u);
    EXPECT_EQ(mem->fastChannel().arbiter().grants(), 0u)
        << "dedicated buses never touch the shared arbiter";
}

TEST_F(CwfMemoryTest, WideRankAblationStillWorks)
{
    // No sub-ranking: one 4-chip rank per sub-channel.
    auto p = rlParams();
    p.ranksPerFastSub = 1;
    p.fastChipsPerRank = 4;
    build(p);
    mem->requestFill(MemoryBackend::FillRequest{0x1000, 0, false, 0, 9},
                     0);
    run(0, 20000);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[1].kind, Event::Complete);
}

// ----------------------------------------------- homogeneous backend

TEST(HomogeneousMemoryTest, SinglePartFillCompletesOnly)
{
    HomogeneousMemory::Params p;
    p.device = DeviceParams::ddr3_1600();
    HomogeneousMemory mem(p);
    std::vector<Event> events;
    mem.setCallbacks(MemoryBackend::Callbacks{
        [&](std::uint64_t id, Tick at, bool ok) {
            events.push_back(Event{Event::Critical, id, at, ok});
        },
        [&](std::uint64_t id, Tick at) {
            events.push_back(Event{Event::Complete, id, at, true});
        },
    });
    EXPECT_EQ(mem.plannedCriticalWord(0, 0, true), kNoFastWord);
    mem.requestFill(MemoryBackend::FillRequest{0x1000, 0, false, 0, 3},
                    0);
    for (Tick t = 0; t <= 20000; ++t)
        mem.tick(t);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].kind, Event::Complete);
    EXPECT_EQ(events[0].mshrId, 3u);
}

TEST(HomogeneousMemoryTest, ChannelInterleaving)
{
    HomogeneousMemory::Params p;
    p.device = DeviceParams::ddr3_1600();
    HomogeneousMemory mem(p);
    mem.setCallbacks(MemoryBackend::Callbacks{
        nullptr, [](std::uint64_t, Tick) {}});
    for (std::uint64_t line = 0; line < 8; ++line) {
        mem.requestFill(MemoryBackend::FillRequest{
                            line << kLineShift, 0, false, 0, line},
                        0);
    }
    for (Tick t = 0; t <= 20000; ++t)
        mem.tick(t);
    for (unsigned ch = 0; ch < 4; ++ch)
        EXPECT_EQ(mem.channel(ch).stats().demandReads.value(), 2u);
}

TEST(HomogeneousMemoryTest, RldramVariantIsFasterThanDdr3)
{
    auto run_one = [](const DeviceParams &dev) {
        HomogeneousMemory::Params p;
        p.device = dev;
        HomogeneousMemory mem(p);
        Tick done = 0;
        mem.setCallbacks(MemoryBackend::Callbacks{
            nullptr, [&](std::uint64_t, Tick at) { done = at; }});
        mem.requestFill(
            MemoryBackend::FillRequest{0x40, 0, false, 0, 1}, 0);
        for (Tick t = 0; t <= 20000; ++t)
            mem.tick(t);
        return done;
    };
    const Tick rl = run_one(DeviceParams::rldram3());
    const Tick d3 = run_one(DeviceParams::ddr3_1600());
    const Tick lp = run_one(DeviceParams::lpddr2_800());
    EXPECT_LT(rl, d3);
    EXPECT_LT(d3, lp);
}

} // namespace
