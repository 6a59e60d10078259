/**
 * @file
 * The hetsim stack assembled from its public classes (buildBackend,
 * Hierarchy, one WorkloadGenerator per core, Core) and stepped one tick
 * at a time, the way examples/run_config.cpp's trace mode drives it.
 *
 * Two flavours share one stepping loop:
 *  - untimed: the bare stack, the reference System's engine is compared
 *    against (sim.engine_cpu_ratio);
 *  - traced: host-time spans around every Core::tick, Hierarchy::tick and
 *    wake call, and around every MemoryBackend call through a forwarding
 *    wrapper, so each layer's self time can be read off from outside.
 *
 * Both reproduce runSimulation()'s warmup/measure phases, so their
 * simulated counters must equal the System run's bit for bit.
 */

#ifndef HETSIM_E2E_BENCH_HARNESS_HH
#define HETSIM_E2E_BENCH_HARNESS_HH

#include <array>
#include <cstdint>
#include <vector>

#include "sim/simulator.hh"
#include "sim/system.hh"
#include "sim/system_config.hh"
#include "workloads/suite.hh"

namespace e2e
{

/** Host-cost layers, named after the source directories they time. */
enum class Layer : std::uint8_t { Sim, Workloads, Cpu, Cache, Core };
constexpr std::size_t kLayers = 5;
const char *layerName(Layer layer);

/** CPU seconds (user + sys) this process has used so far. */
double cpuSeconds();

/** Simulated results a host-only change must leave bit-identical; read
 *  the same way from a System run and from the harness. */
struct SimCounters
{
    hetsim::Tick endTick = 0;
    hetsim::Tick windowTicks = 0;
    std::vector<std::uint64_t> retired; ///< per core, warmup + measure
    std::uint64_t demandReads = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t mshrFullStalls = 0;
    double dramPowerMw = 0;
    double busUtilization = 0;
    double rowHitRate = 0;

    bool operator==(const SimCounters &) const = default;
};

SimCounters countersOf(hetsim::sim::System &system,
                       const hetsim::sim::RunResult &result);

/** Simulated work and host time of one traced run, by layer.  Counts
 *  cover warmup + measurement; rates and fractions are the measurement
 *  window's. */
struct LayerSplit
{
    /** Host seconds inside each layer's spans, minus nested spans.  The
     *  Workloads entry is priced separately (priceGenerator) and still
     *  included in Cpu here: generator calls run inside Core::tick. */
    std::array<double, kLayers> selfSeconds{};
    std::uint64_t ops = 0;        ///< WorkloadGenerator::next() calls
    std::uint64_t ticks = 0;      ///< simulated CPU cycles stepped
    std::uint64_t coreTicks = 0;  ///< Core::tick calls
    std::uint64_t retired = 0;
    std::uint64_t dispatchStalls = 0;
    std::uint64_t accesses = 0;   ///< Hierarchy loads + stores
    std::uint64_t demandMisses = 0;
    std::uint64_t mshrJoins = 0;
    std::uint64_t mshrFullStalls = 0;
    std::uint64_t blockedAccesses = 0;
    std::uint64_t prefetchIssued = 0;
    std::uint64_t fillRequests = 0;
    std::uint64_t writebackRequests = 0;
    std::uint64_t servedByFast = 0;
    std::uint64_t earlyWakes = 0;
    double queueTicks = 0; ///< mean DRAM controller queueing
    /** Ops each core drew, for priceGenerator. */
    std::vector<std::uint64_t> opsPerCore;
};

struct HarnessRun
{
    SimCounters counters;
    LayerSplit split;       ///< filled only by traced runs
    double loopCpuSeconds = 0; ///< host CPU of warmup + measurement
};

/** Run warmup + measurement on the hand-assembled stack. */
HarnessRun runHarness(const hetsim::sim::SystemParams &params,
                      const hetsim::workloads::BenchmarkProfile &profile,
                      unsigned active_cores,
                      const hetsim::sim::RunConfig &config, bool traced);

/**
 * Host seconds the generators take to produce @p ops_per_core ops each,
 * replayed in a standalone loop over the same profile and seeds the run
 * used: next() is too short to time call by call inside the run.
 */
double priceGenerator(const hetsim::workloads::BenchmarkProfile &profile,
                      std::uint64_t seed,
                      const std::vector<std::uint64_t> &ops_per_core);

} // namespace e2e

#endif // HETSIM_E2E_BENCH_HARNESS_HH
