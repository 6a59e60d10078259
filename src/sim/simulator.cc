#include "sim/simulator.hh"

#include "common/log.hh"
#include "core/hetero_memory.hh"
#include "dram/dram_params.hh"

namespace hetsim::sim
{

namespace
{

/**
 * Tick until @p target_reads more demand fills complete or @p max_ticks
 * pass.  Returns the demand fills completed: fewer than @p target_reads
 * means the phase stopped at its tick cap.
 */
std::uint64_t
runPhase(System &system, std::uint64_t target_reads, Tick max_ticks)
{
    const Tick deadline = system.now() + max_ticks;
    const auto &stats = system.hierarchy().stats();
    const std::uint64_t start = stats.demandCompletions.value();
    std::uint64_t done = 0;
    while (done < target_reads && system.now() < deadline) {
        system.tick();
        done = stats.demandCompletions.value() - start;
    }
    return done;
}

} // namespace

RunResult
runSimulation(System &system, const RunConfig &config)
{
    // ---- warmup ----
    runPhase(system, config.warmupReads, config.maxWarmupTicks);
    system.resetStats();

    // ---- measurement ----
    RunResult r;
    r.capped = runPhase(system, config.measureReads,
                        config.maxMeasureTicks) < config.measureReads;
    const Tick now = system.now();
    r.windowTicks = now - system.windowStart();
    r.seconds = static_cast<double>(r.windowTicks) * dram::kTickNs * 1e-9;
    r.aggIpc = system.aggregateIpc();
    r.perCoreIpc = system.perCoreIpc();

    const auto &h = system.hierarchy().stats();
    r.demandReads = h.demandCompletions.value();
    r.writebacks = h.writebacks.value();
    r.criticalWordLatencyTicks = h.criticalWordLatency.mean();
    r.fastLeadTicks = h.fastLead.mean();
    r.fastLeadP50 = h.fastLeadHist.percentile(0.50);
    r.fastLeadP95 = h.fastLeadHist.percentile(0.95);
    r.fastLeadP99 = h.fastLeadHist.percentile(0.99);
    r.earlyWakeLeadP50 = h.earlyWakeLeadHist.percentile(0.50);
    r.earlyWakeLeadP95 = h.earlyWakeLeadHist.percentile(0.95);
    r.earlyWakeLeadP99 = h.earlyWakeLeadHist.percentile(0.99);
    r.missLatencyP50 = h.missLatencyHist.percentile(0.50);
    r.missLatencyP95 = h.missLatencyHist.percentile(0.95);
    r.missLatencyP99 = h.missLatencyHist.percentile(0.99);
    r.secondAccessGapTicks = h.secondAccessGap.mean();
    const std::uint64_t second = h.secondAccesses.value();
    r.secondBeforeCompleteFraction =
        second ? static_cast<double>(h.secondBeforeComplete.value()) /
                     static_cast<double>(second)
               : 0.0;
    r.mshrFullStalls = system.hierarchy().mshrs().fullStalls().value();

    std::uint64_t miss_total = 0;
    for (const auto &c : h.criticalWordHist)
        miss_total += c.value();
    for (unsigned w = 0; w < kWordsPerLine; ++w) {
        r.criticalWordDist[w] =
            miss_total ? static_cast<double>(
                             h.criticalWordHist[w].value()) /
                             static_cast<double>(miss_total)
                       : 0.0;
    }
    const std::uint64_t demand_misses = h.demandMisses.value();
    r.servedByFastFraction =
        demand_misses ? static_cast<double>(h.servedByFast.value()) /
                            static_cast<double>(demand_misses)
                      : 0.0;
    r.earlyWakeFraction =
        demand_misses ? static_cast<double>(h.earlyWakes.value()) /
                            static_cast<double>(demand_misses)
                      : 0.0;

    auto &backend = system.backend();
    r.dramPowerMw = backend.dramPowerMw(now);
    r.busUtilization = backend.busUtilization(now);
    r.latency = backend.latencySplit();
    r.rowHitRate = backend.rowHitRate();
    if (const auto *tiered =
            dynamic_cast<const cwf::HomogeneousMemory *>(&backend)) {
        const std::uint64_t fast = tiered->fastAccesses().value();
        const std::uint64_t fills = fast + tiered->slowAccesses().value();
        r.hotTierShare = fills ? static_cast<double>(fast) /
                                     static_cast<double>(fills)
                               : 0.0;
    }
    return r;
}

} // namespace hetsim::sim
