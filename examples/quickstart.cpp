/**
 * @file
 * Quickstart: build the paper's flagship RL system (RLDRAM3 critical
 * words + LPDDR2 rest-of-line), run one workload against the DDR3
 * baseline, and print the headline comparison.
 *
 * Usage:
 *   quickstart [bench=<name>] [sim.reads=<N>] [mem.config=<RL|RD|DL|...>]
 *
 * Armed with HETSIM_CHECK_MODE=collect, it prints the validator's report
 * to stderr at exit and exits non-zero if a violation was recorded.
 */

#include <cstdio>
#include <iostream>

#include "check/checker.hh"
#include "common/config.hh"
#include "common/table.hh"
#include "common/trace.hh"
#include "sim/experiments.hh"

using namespace hetsim;
using namespace hetsim::sim;

int
main(int argc, char **argv)
{
    Config cfg;
    cfg.parseArgs(argc, argv, {"bench", "sim.reads", "mem.config"});

    const std::string bench = cfg.getString("bench", "leslie3d");
    const std::string config_name = cfg.getString("mem.config", "RL");
    const auto reads = cfg.getUint("sim.reads", 8000);

    setenv("HETSIM_READS", std::to_string(reads).c_str(), 1);
    ExperimentRunner runner;

    const SystemParams baseline =
        ExperimentRunner::paramsFor(MemConfig::BaselineDDR3);
    const SystemParams cwf =
        ExperimentRunner::paramsFor(memConfigByName(config_name));

    std::cout << "hetsim quickstart: " << bench << " on "
              << toString(cwf.mem) << " vs DDR3 baseline ("
              << reads << " demand reads per window)\n\n";

    const RunResult &base = runner.sharedRun(baseline, bench);
    const RunResult &het = runner.sharedRun(cwf, bench);
    const double norm = runner.normalizedThroughput(cwf, baseline, bench);

    Table t({"metric", "DDR3 baseline", toString(cwf.mem)});
    t.addRow({"aggregate IPC", Table::num(base.aggIpc, 2),
              Table::num(het.aggIpc, 2)});
    t.addRow({"normalized throughput", "1.000", Table::num(norm, 3)});
    t.addRow({"critical word latency (CPU cycles)",
              Table::num(base.criticalWordLatencyTicks, 1),
              Table::num(het.criticalWordLatencyTicks, 1)});
    t.addRow({"critical words served by fast DIMM",
              Table::percent(base.servedByFastFraction),
              Table::percent(het.servedByFastFraction)});
    t.addRow({"critical-word lead over rest of line (cycles)",
              Table::num(base.fastLeadTicks, 1),
              Table::num(het.fastLeadTicks, 1)});
    t.addRow({"critical-word lead p50 (cycles)",
              Table::num(base.fastLeadP50, 1),
              Table::num(het.fastLeadP50, 1)});
    t.addRow({"critical-word lead p95 (cycles)",
              Table::num(base.fastLeadP95, 1),
              Table::num(het.fastLeadP95, 1)});
    t.addRow({"demand miss latency p99 (cycles)",
              Table::num(base.missLatencyP99, 1),
              Table::num(het.missLatencyP99, 1)});
    t.addRow({"DRAM power (mW)", Table::num(base.dramPowerMw, 0),
              Table::num(het.dramPowerMw, 0)});
    t.addRow({"data-bus utilization",
              Table::percent(base.busUtilization),
              Table::percent(het.busUtilization)});
    std::cout << t.render() << "\n";

    std::cout << "Fraction of demand misses requesting each word:\n";
    Table dist({"word", "fraction"});
    for (unsigned w = 0; w < kWordsPerLine; ++w) {
        dist.addRow({std::to_string(w),
                     Table::percent(base.criticalWordDist[w])});
    }
    std::cout << dist.render();

    auto &tracer = trace::Tracer::instance();
    if (tracer.enabled() && !tracer.sinkPath().empty()) {
        tracer.flush();
        std::cout << "\nlifecycle trace: " << tracer.sinkPath() << " ("
                  << tracer.recorded() << " events, " << tracer.dropped()
                  << " dropped)\n";
    }
    std::cout.flush();
    return check::collectExitStatus();
}
