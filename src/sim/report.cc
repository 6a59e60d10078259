#include "sim/report.hh"

#include <iomanip>
#include <sstream>

#include "common/json.hh"
#include "dram/dram_params.hh"

namespace hetsim::sim
{

namespace
{

class Lines
{
  public:
    explicit Lines(std::ostringstream &os) : os_(os)
    {
        os_ << std::setprecision(6);
    }

    template <typename T>
    void
    add(const std::string &name, const T &value)
    {
        os_ << std::left << std::setw(44) << name << " " << value
            << "\n";
    }

    void
    section(const std::string &title)
    {
        os_ << "---------- " << title << " ----------\n";
    }

  private:
    std::ostringstream &os_;
};

} // namespace

std::string
renderReport(System &system, const RunResult &result)
{
    std::ostringstream os;
    Lines out(os);

    out.section("run");
    out.add("run.config", system.backend().name());
    out.add("run.benchmark", system.workload());
    out.add("run.window_ticks", result.windowTicks);
    out.add("run.seconds", result.seconds);
    out.add("run.capped", result.capped ? "true" : "false");
    out.add("run.demand_reads", result.demandReads);
    out.add("run.writebacks", result.writebacks);

    out.section("cpu");
    out.add("cpu.agg_ipc", result.aggIpc);
    for (unsigned c = 0; c < system.activeCores(); ++c) {
        const std::string prefix = "cpu." + std::to_string(c);
        out.add(prefix + ".ipc", result.perCoreIpc[c]);
        out.add(prefix + ".retired", system.core(c).retiredInWindow());
        out.add(prefix + ".dispatch_stalls",
                system.core(c).dispatchStalls());
    }

    const auto &h = system.hierarchy().stats();
    out.section("hierarchy");
    out.add("hier.loads", h.loads.value());
    out.add("hier.stores", h.stores.value());
    out.add("hier.demand_misses", h.demandMisses.value());
    out.add("hier.demand_completions", h.demandCompletions.value());
    out.add("hier.store_misses", h.storeMisses.value());
    out.add("hier.mshr_joins", h.mshrJoins.value());
    out.add("hier.prefetch_issued", h.prefetchIssued.value());
    out.add("hier.blocked_accesses", h.blockedAccesses.value());
    out.add("hier.writebacks", h.writebacks.value());
    out.add("hier.l2_hits", system.hierarchy().l2().hits().value());
    out.add("hier.l2_misses", system.hierarchy().l2().misses().value());
    out.add("hier.mshr_full_stalls",
            system.hierarchy().mshrs().fullStalls().value());

    out.section("critical words");
    out.add("cwf.latency_ticks", result.criticalWordLatencyTicks);
    out.add("cwf.latency_ns",
            result.criticalWordLatencyTicks * dram::kTickNs);
    out.add("cwf.served_by_fast", result.servedByFastFraction);
    out.add("cwf.early_wakes", h.earlyWakes.value());
    out.add("cwf.parity_blocked_wakes", h.parityBlockedWakes.value());
    out.add("cwf.fast_lead_ticks", result.fastLeadTicks);
    out.add("cwf.fast_lead_p50_ticks", result.fastLeadP50);
    out.add("cwf.fast_lead_p95_ticks", result.fastLeadP95);
    out.add("cwf.fast_lead_p99_ticks", result.fastLeadP99);
    out.add("cwf.early_wake_lead_p50_ticks", result.earlyWakeLeadP50);
    out.add("cwf.early_wake_lead_p95_ticks", result.earlyWakeLeadP95);
    out.add("cwf.early_wake_lead_p99_ticks", result.earlyWakeLeadP99);
    out.add("cwf.miss_latency_p50_ticks", result.missLatencyP50);
    out.add("cwf.miss_latency_p95_ticks", result.missLatencyP95);
    out.add("cwf.miss_latency_p99_ticks", result.missLatencyP99);
    for (unsigned w = 0; w < kWordsPerLine; ++w) {
        out.add("cwf.critical_word_dist." + std::to_string(w),
                result.criticalWordDist[w]);
    }
    out.add("cwf.second_access_gap_ticks", result.secondAccessGapTicks);
    out.add("cwf.second_before_complete",
            result.secondBeforeCompleteFraction);

    out.section("dram");
    out.add("dram.power_mw", result.dramPowerMw);
    out.add("dram.bus_utilization", result.busUtilization);
    out.add("dram.row_hit_rate", result.rowHitRate);
    out.add("dram.queue_latency_ns",
            result.latency.queueTicks * dram::kTickNs);
    out.add("dram.service_latency_ns",
            result.latency.serviceTicks * dram::kTickNs);
    out.add("dram.total_latency_ns",
            result.latency.totalTicks * dram::kTickNs);

    out.section("components");
    os << system.statRegistry().render();
    return os.str();
}

std::string
renderReportJson(System &system, const RunResult &result)
{
    JsonWriter w;
    w.beginObject();

    w.key("run").beginObject();
    w.key("config").value(system.backend().name());
    w.key("benchmark").value(system.workload());
    w.key("active_cores").value(system.activeCores());
    w.key("window_ticks").value(
        static_cast<std::uint64_t>(result.windowTicks));
    w.key("seconds").value(result.seconds);
    w.key("capped").value(result.capped);
    w.key("tick_ns").value(dram::kTickNs);
    w.endObject();

    w.key("headline").beginObject();
    w.key("agg_ipc").value(result.aggIpc);
    w.key("per_core_ipc").beginArray();
    for (double ipc : result.perCoreIpc)
        w.value(ipc);
    w.endArray();
    w.key("demand_reads").value(result.demandReads);
    w.key("writebacks").value(result.writebacks);
    w.key("dram_power_mw").value(result.dramPowerMw);
    w.key("bus_utilization").value(result.busUtilization);
    w.key("row_hit_rate").value(result.rowHitRate);
    w.key("queue_latency_ticks").value(result.latency.queueTicks);
    w.key("service_latency_ticks").value(result.latency.serviceTicks);
    w.key("total_latency_ticks").value(result.latency.totalTicks);
    w.key("critical_word_latency_ticks")
        .value(result.criticalWordLatencyTicks);
    w.key("served_by_fast_fraction").value(result.servedByFastFraction);
    w.key("early_wake_fraction").value(result.earlyWakeFraction);
    w.key("fast_lead_ticks").value(result.fastLeadTicks);
    w.key("fast_lead_p50_ticks").value(result.fastLeadP50);
    w.key("fast_lead_p95_ticks").value(result.fastLeadP95);
    w.key("fast_lead_p99_ticks").value(result.fastLeadP99);
    w.key("early_wake_lead_p50_ticks").value(result.earlyWakeLeadP50);
    w.key("early_wake_lead_p95_ticks").value(result.earlyWakeLeadP95);
    w.key("early_wake_lead_p99_ticks").value(result.earlyWakeLeadP99);
    w.key("miss_latency_p50_ticks").value(result.missLatencyP50);
    w.key("miss_latency_p95_ticks").value(result.missLatencyP95);
    w.key("miss_latency_p99_ticks").value(result.missLatencyP99);
    w.key("second_access_gap_ticks").value(result.secondAccessGapTicks);
    w.key("second_before_complete_fraction")
        .value(result.secondBeforeCompleteFraction);
    w.key("mshr_full_stalls").value(result.mshrFullStalls);
    w.key("critical_word_dist").beginArray();
    for (double frac : result.criticalWordDist)
        w.value(frac);
    w.endArray();
    w.endObject();

    w.key("groups").beginObject();
    for (const StatGroup *group : system.statRegistry().groups()) {
        w.key(group->name()).beginObject();
        for (const auto &[stat, value] : group->values())
            w.key(stat).value(value);
        w.endObject();
    }
    w.endObject();

    w.endObject();
    return w.str();
}

} // namespace hetsim::sim
