/**
 * @file
 * Simulation driver: warmup phase, measurement window (a fixed number of
 * demand DRAM fills, mirroring the paper's "2 million DRAM read
 * accesses" quantum), and result collection.
 */

#ifndef HETSIM_SIM_SIMULATOR_HH
#define HETSIM_SIM_SIMULATOR_HH

#include <array>
#include <vector>

#include "core/memory_backend.hh"
#include "sim/system.hh"

namespace hetsim::sim
{

struct RunConfig
{
    /** Demand fills in the measurement window (paper: 2,000,000;
     *  defaults here are sized for minutes-long bench sweeps and can be
     *  raised via HETSIM_READS). */
    std::uint64_t measureReads = 25000;
    std::uint64_t warmupReads = 3000;
    /** Hard tick caps so low-MPKI workloads (ep) terminate. */
    Tick maxWarmupTicks = 3'000'000;
    Tick maxMeasureTicks = 30'000'000;
};

struct RunResult
{
    double aggIpc = 0;                 ///< sum of per-core IPC
    std::vector<double> perCoreIpc;
    Tick windowTicks = 0;
    double seconds = 0;                ///< window wall-time at 3.2 GHz
    /** The measurement window stopped at maxMeasureTicks, short of
     *  RunConfig::measureReads demand fills. */
    bool capped = false;
    /** Demand fills the measurement window completed. */
    std::uint64_t demandReads = 0;
    std::uint64_t writebacks = 0;
    double dramPowerMw = 0;
    double busUtilization = 0;
    cwf::LatencySplit latency;         ///< demand-read channel latency
    double criticalWordLatencyTicks = 0;
    double servedByFastFraction = 0;   ///< Fig. 8
    double earlyWakeFraction = 0;
    double fastLeadTicks = 0;          ///< slow - fast arrival gap
    /** Distribution tails from the hierarchy's histograms (ticks). */
    double fastLeadP50 = 0, fastLeadP95 = 0, fastLeadP99 = 0;
    double earlyWakeLeadP50 = 0, earlyWakeLeadP95 = 0,
           earlyWakeLeadP99 = 0;
    double missLatencyP50 = 0, missLatencyP95 = 0, missLatencyP99 = 0;
    std::array<double, kWordsPerLine> criticalWordDist{};
    double secondAccessGapTicks = 0;
    double secondBeforeCompleteFraction = 0;
    std::uint64_t mshrFullStalls = 0;
    double rowHitRate = 0;
    /** Share of fills routed to the hot tier (Section 7.1 page
     *  placement); 0 for a backend without one. */
    double hotTierShare = 0;
};

/** Run warmup + measurement on an already-constructed system. */
RunResult runSimulation(System &system, const RunConfig &config);

} // namespace hetsim::sim

#endif // HETSIM_SIM_SIMULATOR_HH
