/**
 * @file
 * Overhead microbenchmarks for the runtime protocol validator
 * (src/check): the disabled-validator cost — every hook degenerates to
 * one global-flag load+branch — must stay within a ~2% budget of the
 * loaded channel tick loop, and the enabled (Collect-mode) cost is
 * reported so CI runs budget their wall time.
 */

#include <benchmark/benchmark.h>

#include "check/checker.hh"
#include "common/rng.hh"
#include "dram/channel.hh"

using namespace hetsim;

namespace
{

/** The same loaded tick loop as BM_ChannelTickLoaded, factored so the
 *  off/on variants measure identical work modulo the validator. */
void
tickLoop(benchmark::State &state, dram::DeviceKind kind)
{
    const auto dev = dram::DeviceParams::byKind(kind);
    dram::Channel chan("bm", dev, 2);
    std::uint64_t completed = 0;
    chan.setCallback([&](dram::MemRequest &) { completed += 1; });
    Rng rng(42);
    Tick t = 0;
    std::uint64_t injected = 0;
    for (auto _ : state) {
        if (chan.canAccept(AccessType::Read) && rng.chance(0.1)) {
            dram::MemRequest req;
            req.id = injected++;
            req.lineAddr = injected * 64;
            req.type = AccessType::Read;
            req.coord = dram::DramCoord{
                0, static_cast<std::uint8_t>(rng.below(2)),
                static_cast<std::uint8_t>(rng.below(dev.banksPerRank)),
                static_cast<std::uint32_t>(rng.below(256)),
                static_cast<std::uint32_t>(rng.below(dev.lineColsPerRow))};
            chan.enqueue(req, t);
        }
        chan.tick(t);
        t += 1;
    }
    state.counters["reads_completed"] = static_cast<double>(completed);
}

void
BM_ChannelTickCheckerOff(benchmark::State &state)
{
    check::Checker::instance().disable();
    tickLoop(state, static_cast<dram::DeviceKind>(state.range(0)));
}
BENCHMARK(BM_ChannelTickCheckerOff)
    ->Arg(0)  // DDR3
    ->Arg(2); // RLDRAM3

void
BM_ChannelTickCheckerOn(benchmark::State &state)
{
    check::Checker::instance().enable(check::Mode::Collect);
    tickLoop(state, static_cast<dram::DeviceKind>(state.range(0)));
    check::Checker::instance().disable();
}
BENCHMARK(BM_ChannelTickCheckerOn)
    ->Arg(0)
    ->Arg(2);

} // namespace

BENCHMARK_MAIN();
