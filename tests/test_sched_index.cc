/**
 * @file
 * Command-stream pin for the FR-FCFS scheduler: random bursty traffic on
 * every device family must reproduce a recorded digest of everything
 * observable — audit events, completions, scheduler statistics,
 * shared-bus grants and conflicts, refused injections and the drain
 * tick — with the protocol validator armed throughout.
 *
 * The digests were recorded when the simulator still carried two
 * scheduler implementations (the linear scan kept here and an indexed
 * one with per-bank FIFOs and cached legality horizons), on plans where
 * both produced the same stream command for command.  Any change to
 * which command issues when moves a digest.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "check/checker.hh"
#include "common/rng.hh"
#include "dram/channel.hh"

using namespace hetsim;
using check::Checker;
using check::Mode;
using dram::AddrBusArbiter;
using dram::Channel;
using dram::DeviceKind;
using dram::DeviceParams;
using dram::DramCoord;
using dram::MemRequest;
using dram::SchedulerPolicy;

namespace
{

/** One planned enqueue. */
struct Injection
{
    Tick at = 0;          ///< tick the enqueue call is made
    Tick arrivalDelay = 0; ///< packetised front-ends enqueue into the future
    unsigned chan = 0;
    MemRequest req;
};

/** Everything observable about one run. */
struct RunOutcome
{
    std::vector<std::string> events; ///< audit + completions, formatted
    std::string stats;
    std::uint64_t busConflicts = 0;
    std::uint64_t busGrants = 0;
    unsigned dropped = 0; ///< injections refused by canAccept
    Tick endTick = 0;
};

std::vector<Injection>
makePlan(const DeviceParams &dev, unsigned ranks, unsigned nchan,
         std::uint64_t seed, unsigned count)
{
    std::vector<Injection> plan;
    plan.reserve(count);
    Rng rng(seed);
    Tick t = 0;
    for (unsigned i = 0; i < count; ++i) {
        // Bursty arrivals: dense trains with occasional long quiet gaps
        // so refresh catch-up and power-down entry/wake paths fire.
        if (rng.chance(0.02))
            t += 20'000 + rng.below(60'000);
        else
            t += rng.below(40);
        Injection inj;
        inj.at = t;
        // A slice of traffic arrives with a future enqueue tick, the way
        // packetised front-ends (HMC vaults) deliver transactions.
        if (rng.chance(0.15))
            inj.arrivalDelay = 1 + rng.below(200);
        inj.chan = nchan > 1 ? static_cast<unsigned>(rng.below(nchan)) : 0;
        MemRequest &req = inj.req;
        req.id = i;
        req.cookie = i;
        // A small line pool makes read-after-write forwarding common.
        req.lineAddr = static_cast<Addr>(rng.below(96)) * 64ULL;
        const double p = static_cast<double>(rng.below(100)) / 100.0;
        if (p < 0.30)
            req.type = AccessType::Write;
        else if (p < 0.45)
            req.type = AccessType::Prefetch; // exercises class promotion
        else
            req.type = AccessType::Read;
        req.coord = DramCoord{
            0, static_cast<std::uint8_t>(rng.below(ranks)),
            static_cast<std::uint8_t>(rng.below(dev.banksPerRank)),
            static_cast<std::uint32_t>(rng.below(64)),
            static_cast<std::uint32_t>(rng.below(dev.lineColsPerRow))};
        plan.push_back(inj);
    }
    return plan;
}

RunOutcome
runPlan(const DeviceParams &dev, unsigned ranks, bool shared_bus,
        const std::vector<Injection> &plan)
{
    RunOutcome out;
    const unsigned nchan = shared_bus ? 2 : 1;
    auto arbiter = shared_bus
                       ? std::make_unique<AddrBusArbiter>(dev.clockDivider)
                       : nullptr;
    std::vector<std::unique_ptr<Channel>> chans;
    for (unsigned c = 0; c < nchan; ++c) {
        chans.push_back(std::make_unique<Channel>(
            "diff" + std::to_string(c), dev, ranks, SchedulerPolicy{},
            arbiter.get()));
        chans.back()->enableAudit(true);
        chans.back()->setCallback([&out, c](MemRequest &req) {
            std::ostringstream os;
            os << "done c" << c << " id=" << req.cookie
               << " first=" << req.firstIssue
               << " col=" << req.columnIssue << " at=" << req.complete;
            out.events.push_back(os.str());
        });
    }

    auto allIdle = [&] {
        for (const auto &c : chans) {
            if (!c->idle())
                return false;
        }
        return true;
    };

    std::size_t pos = 0;
    Tick t = 0;
    const Tick horizon = 400'000'000;
    Tick lastArrival = 0;
    while ((pos < plan.size() || !allIdle() || t <= lastArrival) &&
           t < horizon) {
        while (pos < plan.size() && plan[pos].at == t) {
            const Injection &inj = plan[pos];
            if (chans[inj.chan]->canAccept(inj.req.type)) {
                chans[inj.chan]->enqueue(inj.req, t + inj.arrivalDelay);
                lastArrival = std::max(lastArrival, t + inj.arrivalDelay);
            } else {
                out.dropped += 1;
            }
            pos += 1;
        }
        for (auto &c : chans)
            c->tick(t);
        t += 1;
    }
    EXPECT_LT(t, horizon) << "run failed to drain";
    out.endTick = t;

    for (unsigned c = 0; c < nchan; ++c) {
        for (const auto &ev : chans[c]->audit()) {
            std::ostringstream os;
            os << "cmd c" << c << " " << toString(ev.cmd) << " t=" << ev.at
               << " r" << static_cast<unsigned>(ev.rank) << " b"
               << static_cast<unsigned>(ev.bank) << " row=" << ev.row
               << " data=[" << ev.dataStart << "," << ev.dataEnd << ")";
            out.events.push_back(os.str());
        }
        const auto &s = chans[c]->stats();
        std::ostringstream os;
        os << "stats c" << c << " dr=" << s.demandReads.value()
           << " pf=" << s.prefetchReads.value()
           << " wr=" << s.writes.value() << " hit=" << s.rowHits.value()
           << " miss=" << s.rowMisses.value()
           << " fwd=" << s.forwardedFromWriteQ.value()
           << " ref=" << s.refreshes.value()
           << " pdn=" << s.powerDownEntries.value()
           << " bus=" << s.dataBusBusyTicks
           << " ql=" << s.queueLatency.sum() << "/"
           << s.queueLatency.count()
           << " tl=" << s.totalLatency.sum() << "/"
           << s.totalLatency.count();
        out.stats += os.str() + "\n";
    }
    if (arbiter) {
        out.busConflicts = arbiter->conflicts();
        out.busGrants = arbiter->grants();
    }
    return out;
}

/** FNV-1a over the formatted outcome: events in order, then the
 *  statistics and bus/drop/end-tick counters. */
std::uint64_t
digestOf(const RunOutcome &out)
{
    std::ostringstream os;
    for (const auto &ev : out.events)
        os << ev << '\n';
    os << out.stats << "bus grants=" << out.busGrants
       << " conflicts=" << out.busConflicts << " dropped=" << out.dropped
       << " end=" << out.endTick << '\n';
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : os.str()) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Recorded digest of each sweep plan, keyed by its (unique) seed. */
std::uint64_t
recordedDigest(std::uint64_t seed)
{
    static const std::pair<std::uint64_t, std::uint64_t> kRecorded[] = {
        {0xd1f7ULL, 0xb176f318ba7943baULL},
        {99ULL, 0x7a537106cb03046fULL},
        {0xab5ULL, 0x73df4cac0cf10c4dULL},
        {7ULL, 0x5313d4d3bb5d950cULL},
        {0xc0deULL, 0xa955fafecc73d1b2ULL},
        {23ULL, 0x406522be1f611218ULL},
    };
    for (const auto &[plan_seed, digest] : kRecorded) {
        if (plan_seed == seed)
            return digest;
    }
    ADD_FAILURE() << "no recorded digest for plan seed " << seed;
    return 0;
}

class SchedDifferential
    : public ::testing::TestWithParam<
          std::tuple<DeviceKind, unsigned, bool, std::uint64_t>>
{
};

// The name records the comparison the pinned digests came from.
TEST_P(SchedDifferential, IndexedMatchesLinearCommandForCommand)
{
    const auto [kind, ranks, shared_bus, seed] = GetParam();
    const DeviceParams dev = DeviceParams::byKind(kind);
    const auto plan =
        makePlan(dev, ranks, shared_bus ? 2 : 1, seed, 1500);

    auto &checker = Checker::instance();
    checker.enable(Mode::Collect);
    const RunOutcome out = runPlan(dev, ranks, shared_bus, plan);
    checker.finalizeAll();
    EXPECT_TRUE(checker.violations().empty()) << checker.report();
    checker.disable();

    // Meaningful run: commands actually issued and some were audited.
    EXPECT_GT(out.events.size(), 1000u);
    EXPECT_EQ(digestOf(out), recordedDigest(seed))
        << "command stream moved; " << out.events.size() << " events\n"
        << out.stats;
}

INSTANTIATE_TEST_SUITE_P(
    DeviceSweep, SchedDifferential,
    ::testing::Values(
        // (device, ranks, shared command bus, seed)
        std::make_tuple(DeviceKind::DDR3, 2u, false, 0xd1f7ULL),
        std::make_tuple(DeviceKind::DDR3, 2u, false, 99ULL),
        std::make_tuple(DeviceKind::LPDDR2, 2u, false, 0xab5ULL),
        std::make_tuple(DeviceKind::LPDDR2, 1u, false, 7ULL),
        std::make_tuple(DeviceKind::RLDRAM3, 2u, true, 0xc0deULL),
        std::make_tuple(DeviceKind::RLDRAM3, 1u, true, 23ULL)),
    [](const auto &info) {
        std::string name =
            std::string(toString(std::get<0>(info.param))) + "_r" +
            std::to_string(std::get<1>(info.param)) +
            (std::get<2>(info.param) ? "_sharedbus" : "") + "_s" +
            std::to_string(std::get<3>(info.param));
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

} // namespace
