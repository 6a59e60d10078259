/**
 * @file
 * Property-based tests over the channel's audit trace: for randomized
 * request streams on every device type, the issued command sequence must
 * satisfy the JEDEC-style invariants the timing model claims to enforce
 * (no data-bus overlap, per-bank tRC spacing, activate->column >= tRCD,
 * precharge->activate >= tRP, tFAW windows, and no lost requests).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "check/checker.hh"
#include "common/rng.hh"
#include "dram/channel.hh"

using namespace hetsim;
using dram::Channel;
using dram::DeviceParams;
using dram::DramCmd;
using dram::DramCoord;
using dram::MemRequest;

namespace
{

/**
 * gtest prints a parameter's raw bytes into each ctest name, so the
 * layout has no implicit padding and every byte is set (see stream()):
 * the names come out the same in every build.
 */
struct StreamParams
{
    dram::DeviceKind kind;
    std::uint8_t zero0[3] = {};
    unsigned ranks;
    unsigned requests;
    std::uint32_t zero1 = 0;
    double writeFraction;
    std::uint64_t seed;
};
static_assert(sizeof(StreamParams) == 32, "StreamParams must not pad");

StreamParams
stream(dram::DeviceKind kind, unsigned ranks, unsigned requests,
       double write_fraction, std::uint64_t seed)
{
    StreamParams sp{};
    sp.kind = kind;
    sp.ranks = ranks;
    sp.requests = requests;
    sp.writeFraction = write_fraction;
    sp.seed = seed;
    return sp;
}

class ChannelProperties : public ::testing::TestWithParam<StreamParams>
{
  protected:
    static DeviceParams
    device(dram::DeviceKind kind)
    {
        return DeviceParams::byKind(kind);
    }
};

TEST_P(ChannelProperties, AuditInvariantsHold)
{
    const auto sp = GetParam();
    const DeviceParams dev = device(sp.kind);
    Channel chan("prop", dev, sp.ranks);
    chan.enableAudit(true);

    std::uint64_t reads_expected = 0, reads_done = 0;
    chan.setCallback([&](MemRequest &req) {
        if (req.isRead())
            reads_done += 1;
    });

    Rng rng(sp.seed);
    unsigned injected = 0;
    Tick t = 0;
    const Tick horizon = 40'000'000;
    while ((injected < sp.requests || !chan.idle()) && t < horizon) {
        if (injected < sp.requests && rng.chance(0.15)) {
            const bool is_write = rng.chance(sp.writeFraction);
            MemRequest req;
            req.id = injected;
            req.lineAddr = injected * 64ULL;
            req.type = is_write ? AccessType::Write : AccessType::Read;
            req.coord = DramCoord{
                0, static_cast<std::uint8_t>(rng.below(sp.ranks)),
                static_cast<std::uint8_t>(rng.below(dev.banksPerRank)),
                static_cast<std::uint32_t>(rng.below(64)),
                static_cast<std::uint32_t>(
                    rng.below(dev.lineColsPerRow))};
            if (chan.canAccept(req.type)) {
                chan.enqueue(req, t);
                injected += 1;
                if (!is_write)
                    reads_expected += 1;
            }
        }
        chan.tick(t);
        t += 1;
    }

    ASSERT_LT(t, horizon) << "channel failed to drain (livelock?)";
    EXPECT_EQ(reads_done, reads_expected) << "lost read responses";

    const auto &audit = chan.audit();
    ASSERT_FALSE(audit.empty());

    // (1) Data-bus transfers never overlap.
    Tick last_data_end = 0;
    for (const auto &ev : audit) {
        if (ev.dataEnd == 0)
            continue;
        EXPECT_GE(ev.dataStart, last_data_end)
            << toString(ev.cmd) << " at " << ev.at;
        last_data_end = ev.dataEnd;
    }

    // (2..5) Per-bank spacing invariants.
    struct BankTrace
    {
        Tick lastActivate = kTickNever;
        Tick lastPrecharge = kTickNever;
    };
    std::map<std::pair<unsigned, unsigned>, BankTrace> banks;
    std::map<unsigned, std::vector<Tick>> rank_activates;

    for (const auto &ev : audit) {
        auto &bt = banks[{ev.rank, ev.bank}];
        switch (ev.cmd) {
          case DramCmd::Activate:
          case DramCmd::CompoundRead:
          case DramCmd::CompoundWrite:
            if (bt.lastActivate != kTickNever) {
                EXPECT_GE(ev.at - bt.lastActivate, dev.ticks(dev.tRC))
                    << "tRC violated on bank " << int(ev.bank);
            }
            if (dev.tRP > 0 && bt.lastPrecharge != kTickNever) {
                EXPECT_GE(ev.at - bt.lastPrecharge, dev.ticks(dev.tRP))
                    << "tRP violated";
            }
            bt.lastActivate = ev.at;
            rank_activates[ev.rank].push_back(ev.at);
            break;
          case DramCmd::Read:
          case DramCmd::Write:
            ASSERT_NE(bt.lastActivate, kTickNever)
                << "column with no prior activate";
            EXPECT_GE(ev.at - bt.lastActivate, dev.ticks(dev.tRCD))
                << "tRCD violated";
            // Read data must appear exactly tRL after the command.
            if (ev.cmd == DramCmd::Read)
                EXPECT_EQ(ev.dataStart - ev.at, dev.ticks(dev.tRL));
            else
                EXPECT_EQ(ev.dataStart - ev.at, dev.ticks(dev.tWL));
            break;
          case DramCmd::Precharge:
            ASSERT_NE(bt.lastActivate, kTickNever);
            EXPECT_GE(ev.at - bt.lastActivate, dev.ticks(dev.tRAS))
                << "tRAS violated";
            bt.lastPrecharge = ev.at;
            break;
          case DramCmd::Refresh:
            break;
        }
    }

    // (6) tFAW: any five consecutive activates within a rank span at
    // least tFAW.
    if (dev.tFAW > 0) {
        for (const auto &[rank, acts] : rank_activates) {
            for (std::size_t i = 4; i < acts.size(); ++i) {
                EXPECT_GE(acts[i] - acts[i - 4], dev.ticks(dev.tFAW))
                    << "tFAW violated in rank " << rank;
            }
        }
    }

    // (7) Commands only issue on memory-cycle boundaries.
    for (const auto &ev : audit)
        EXPECT_EQ(ev.at % dev.clockDivider, 0u);
}

/** The same randomized streams, judged by the runtime protocol validator
 *  instead of the hand-rolled assertions above: the checker re-derives
 *  every JEDEC rule from DeviceParams and must find the scheduler clean
 *  on all devices (DDR3/LPDDR2/RLDRAM3, 1..4 ranks, mixed read/write). */
TEST_P(ChannelProperties, ProtocolCheckerFindsSchedulerClean)
{
    const auto sp = GetParam();
    const DeviceParams dev = device(sp.kind);

    check::arm(check::Mode::Collect);

    {
        Channel chan("propchk", dev, sp.ranks);
        Rng rng(sp.seed ^ 0xc0ffee);
        unsigned injected = 0;
        Tick t = 0;
        const Tick horizon = 40'000'000;
        while ((injected < sp.requests || !chan.idle()) && t < horizon) {
            if (injected < sp.requests && rng.chance(0.15)) {
                MemRequest req;
                req.id = injected;
                req.lineAddr = injected * 64ULL;
                req.type = rng.chance(sp.writeFraction)
                               ? AccessType::Write
                               : AccessType::Read;
                req.coord = DramCoord{
                    0, static_cast<std::uint8_t>(rng.below(sp.ranks)),
                    static_cast<std::uint8_t>(
                        rng.below(dev.banksPerRank)),
                    static_cast<std::uint32_t>(rng.below(64)),
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
        ASSERT_LT(t, horizon) << "channel failed to drain";
    }

    EXPECT_TRUE(check::violations().empty()) << check::report();
    check::disarm();
}

INSTANTIATE_TEST_SUITE_P(
    DeviceSweep, ChannelProperties,
    ::testing::Values(stream(dram::DeviceKind::DDR3, 1, 300, 0.3, 1),
                      stream(dram::DeviceKind::DDR3, 2, 300, 0.3, 2),
                      stream(dram::DeviceKind::DDR3, 1, 300, 0.0, 3),
                      stream(dram::DeviceKind::DDR3, 2, 200, 0.6, 4),
                      stream(dram::DeviceKind::LPDDR2, 1, 250, 0.3, 5),
                      stream(dram::DeviceKind::LPDDR2, 2, 250, 0.4, 6),
                      stream(dram::DeviceKind::RLDRAM3, 1, 400, 0.3, 7),
                      stream(dram::DeviceKind::RLDRAM3, 4, 400, 0.3, 8),
                      stream(dram::DeviceKind::RLDRAM3, 4, 300, 0.0, 9)));

/** The same invariant sweep with four sub-channels contending on a
 *  shared command bus (the aggregated RLDRAM organisation). */
TEST(SharedBusProperties, NoCommandSlotOversubscription)
{
    const DeviceParams dev = DeviceParams::rldram3();
    dram::AddrBusArbiter arbiter(dev.clockDivider);
    std::vector<std::unique_ptr<Channel>> subs;
    for (int s = 0; s < 4; ++s) {
        subs.push_back(std::make_unique<Channel>(
            "s" + std::to_string(s), dev, 4, dram::SchedulerPolicy{},
            &arbiter));
        subs.back()->enableAudit(true);
    }
    std::uint64_t done = 0;
    for (auto &sub : subs)
        sub->setCallback([&](MemRequest &) { done += 1; });

    // Drive a saturating stream and check the global command rate never
    // exceeds one per memory cycle.
    Rng rng(42);
    unsigned injected = 0;
    for (Tick t = 0; t < 400000 && (injected < 400 || done < injected);
         ++t) {
        if (injected < 400) {
            auto &sub = *subs[injected % 4];
            if (sub.canAccept(AccessType::Read)) {
                MemRequest req;
                req.id = injected;
                req.lineAddr = injected * 64ULL;
                req.type = AccessType::Read;
                req.coord = DramCoord{
                    0, static_cast<std::uint8_t>(rng.below(4)),
                    static_cast<std::uint8_t>(rng.below(16)),
                    static_cast<std::uint32_t>(rng.below(64)),
                    static_cast<std::uint32_t>(rng.below(16))};
                sub.enqueue(req, t);
                injected += 1;
            }
        }
        for (auto &sub : subs)
            sub->tick(t);
    }
    EXPECT_EQ(done, 400u);

    // Merge audits: at most one command per memory cycle across ALL
    // sub-channels (the shared bus property).
    std::map<Tick, int> slots;
    for (const auto &sub : subs) {
        for (const auto &ev : sub->audit())
            slots[ev.at] += 1;
    }
    for (const auto &[at, n] : slots)
        EXPECT_EQ(n, 1) << "command-bus oversubscription at tick " << at;
}

} // namespace
