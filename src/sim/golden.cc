#include "sim/golden.hh"

#include <cstdio>
#include <cstdlib>

#include "common/json.hh"
#include "dram/dram_params.hh"
#include "sim/experiments.hh"
#include "sim/report.hh"
#include "workloads/suite.hh"

namespace hetsim::sim
{

const char *const kGoldenBenchmark = "mcf";

const std::vector<GoldenSpec> &
goldenSpecs()
{
    // The five configurations the paper's headline figures compare.
    static const std::vector<GoldenSpec> specs = {
        {MemConfig::BaselineDDR3, "baseline_ddr3"},
        {MemConfig::CwfRD, "cwf_rd"},
        {MemConfig::CwfRL, "cwf_rl"},
        {MemConfig::CwfRLAdaptive, "cwf_rl_ad"},
        {MemConfig::CwfRLOracle, "cwf_rl_or"},
    };
    return specs;
}

const std::vector<GoldenSpec> &
goldenMatrixSpecs()
{
    const auto spec = [](MemConfig mem, const char *key,
                         const char *bench) {
        GoldenSpec s{mem, key, bench};
        s.run.measureReads = 1000;
        s.run.warmupReads = 2000;
        return s;
    };
    // ep falls far short of its read targets here, so both phases stop
    // at their caps; the digest pins the capped trajectory.
    const auto capped = [&](MemConfig mem, const char *key) {
        GoldenSpec s = spec(mem, key, "ep");
        s.run.maxWarmupTicks = 50'000;
        s.run.maxMeasureTicks = 25'000;
        return s;
    };
    static const std::vector<GoldenSpec> specs = {
        spec(MemConfig::BaselineDDR3, "matrix_libquantum_ddr3",
             "libquantum"),
        spec(MemConfig::CwfRL, "matrix_libquantum_rl", "libquantum"),
        spec(MemConfig::BaselineDDR3, "matrix_leslie3d_ddr3", "leslie3d"),
        spec(MemConfig::CwfRL, "matrix_leslie3d_rl", "leslie3d"),
        spec(MemConfig::BaselineDDR3, "matrix_omnetpp_ddr3", "omnetpp"),
        spec(MemConfig::CwfRL, "matrix_omnetpp_rl", "omnetpp"),
        spec(MemConfig::BaselineDDR3, "matrix_lbm_ddr3", "lbm"),
        spec(MemConfig::CwfRL, "matrix_lbm_rl", "lbm"),
        capped(MemConfig::BaselineDDR3, "matrix_ep_ddr3"),
        capped(MemConfig::CwfRL, "matrix_ep_rl"),
        spec(MemConfig::HomoLPDDR2, "matrix_libquantum_lpddr2",
             "libquantum"),
        spec(MemConfig::HomoRLDRAM3, "matrix_libquantum_rldram3",
             "libquantum"),
        spec(MemConfig::PagePlacement, "matrix_libquantum_pp",
             "libquantum"),
    };
    return specs;
}

RunConfig
goldenRunConfig()
{
    // Deliberately NOT derived from HETSIM_READS or any other env knob:
    // the whole point is that every machine reproduces the same run.
    RunConfig rc;
    rc.measureReads = 2000;
    rc.warmupReads = 400;
    rc.maxWarmupTicks = 3'000'000;
    rc.maxMeasureTicks = 30'000'000;
    return rc;
}

namespace
{

/** Round to 9 significant digits so the digest tolerates sub-ulp noise
 *  (e.g. compiler FP contraction differences) without hiding real model
 *  drift. */
double
roundSig(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return std::strtod(buf, nullptr);
}

void
percentiles(JsonWriter &w, const char *name, double p50, double p95,
            double p99)
{
    w.key(name).beginArray();
    w.value(roundSig(p50)).value(roundSig(p95)).value(roundSig(p99));
    w.endArray();
}

} // namespace

std::string
renderGoldenDigest(System &system, const RunResult &result,
                   const RunConfig &rc)
{
    JsonWriter w;
    w.beginObject();
    w.key("schema").value(1);
    w.key("config").value(toString(system.params().mem));
    w.key("backend").value(system.backend().name());
    w.key("benchmark").value(system.workload());
    w.key("cores").value(system.activeCores());
    w.key("seed").value(system.params().seed);
    w.key("measure_reads").value(rc.measureReads);
    w.key("warmup_reads").value(rc.warmupReads);

    w.key("window_ticks").value(
        static_cast<std::uint64_t>(result.windowTicks));
    w.key("demand_reads").value(result.demandReads);
    w.key("writebacks").value(result.writebacks);
    w.key("mshr_full_stalls").value(result.mshrFullStalls);

    w.key("agg_ipc").value(roundSig(result.aggIpc));
    w.key("per_core_ipc").beginArray();
    for (double ipc : result.perCoreIpc)
        w.value(roundSig(ipc));
    w.endArray();

    w.key("dram_power_mw").value(roundSig(result.dramPowerMw));
    // mW x s == mJ: the window's DRAM energy, the paper's other axis.
    w.key("energy_mj").value(roundSig(result.dramPowerMw *
                                      result.seconds));
    w.key("bus_utilization").value(roundSig(result.busUtilization));
    w.key("row_hit_rate").value(roundSig(result.rowHitRate));

    w.key("queue_latency_ticks").value(roundSig(result.latency.queueTicks));
    w.key("service_latency_ticks")
        .value(roundSig(result.latency.serviceTicks));
    w.key("total_latency_ticks").value(roundSig(result.latency.totalTicks));
    w.key("critical_word_latency_ticks")
        .value(roundSig(result.criticalWordLatencyTicks));

    w.key("served_by_fast_fraction")
        .value(roundSig(result.servedByFastFraction));
    w.key("early_wake_fraction").value(roundSig(result.earlyWakeFraction));
    w.key("fast_lead_ticks").value(roundSig(result.fastLeadTicks));
    percentiles(w, "fast_lead_p", result.fastLeadP50, result.fastLeadP95,
                result.fastLeadP99);
    percentiles(w, "early_wake_lead_p", result.earlyWakeLeadP50,
                result.earlyWakeLeadP95, result.earlyWakeLeadP99);
    percentiles(w, "miss_latency_p", result.missLatencyP50,
                result.missLatencyP95, result.missLatencyP99);

    w.key("critical_word_dist").beginArray();
    for (double frac : result.criticalWordDist)
        w.value(roundSig(frac));
    w.endArray();
    w.key("second_access_gap_ticks")
        .value(roundSig(result.secondAccessGapTicks));
    w.key("second_before_complete_fraction")
        .value(roundSig(result.secondBeforeCompleteFraction));
    w.endObject();
    return w.str() + "\n";
}

SystemParams
goldenParams(const GoldenSpec &spec)
{
    SystemParams params;
    params.mem = spec.config;
    params.seed = kGoldenSeed;
    // The hot pages come from a DDR3 profile of the spec's own window,
    // so the placement, too, is independent of any env knob.
    if (spec.config == MemConfig::PagePlacement)
        params.hotPages = profileHotPages(spec.benchmark, spec.run);
    return params;
}

GoldenOutcome
runGolden(const GoldenSpec &spec)
{
    return runGolden(spec, goldenParams(spec));
}

GoldenOutcome
runGolden(const GoldenSpec &spec, const SystemParams &params)
{
    System system(params, workloads::suite::byName(spec.benchmark),
                  kGoldenCores);
    GoldenOutcome out;
    out.result = runSimulation(system, spec.run);
    out.digest = renderGoldenDigest(system, out.result, spec.run);
    out.fullReport = renderReportJson(system, out.result);
    return out;
}

} // namespace hetsim::sim
