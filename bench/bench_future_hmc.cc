/**
 * @file
 * Section 10 future-work reproduction: critical-data-first in an
 * HMC-like packetised memory.  The paper sketches two variants; this
 * bench evaluates the "critical data returned in an earlier
 * high-priority packet" one against the same cube without priority
 * packets and against the conventional DDR3 baseline.
 */

#include "bench_util.hh"

using namespace hetsim;
using namespace hetsim::sim;

void
bench::future_hmc(ExperimentRunner &runner)
{
    bench::printHeader(
        "Section 10 (future work)",
        "critical-data-first in an HMC-like packetised memory",
        "\"the critical data could be returned in an earlier "
        "high-priority packet\" - sketched, not evaluated, in the paper",
        runner.scale());

    const SystemParams ddr3 =
        ExperimentRunner::paramsFor(MemConfig::BaselineDDR3);
    const SystemParams hmc =
        ExperimentRunner::paramsFor(MemConfig::HmcBaseline);
    const SystemParams cdf = ExperimentRunner::paramsFor(MemConfig::HmcCdf);
    runner.prefetchThroughput({hmc, cdf}, ddr3);

    Table t({"benchmark", "HMC vs DDR3", "HMC-CDF vs DDR3",
             "CDF vs plain HMC", "CDF crit. latency (cyc)",
             "HMC crit. latency (cyc)"});
    std::vector<double> hmc_n, cdf_n, rel;
    for (const auto &wl : runner.workloads()) {
        const double h = runner.normalizedThroughput(hmc, ddr3, wl);
        const double c = runner.normalizedThroughput(cdf, ddr3, wl);
        hmc_n.push_back(h);
        cdf_n.push_back(c);
        rel.push_back(c / h);
        t.addRow({wl, Table::num(h, 3), Table::num(c, 3),
                  Table::num(c / h, 3),
                  Table::num(runner.sharedRun(cdf, wl)
                                 .criticalWordLatencyTicks,
                             1),
                  Table::num(runner.sharedRun(hmc, wl)
                                 .criticalWordLatencyTicks,
                             1)});
    }
    t.addRow({"MEAN", Table::num(mean(hmc_n), 3), Table::num(mean(cdf_n), 3),
              Table::num(mean(rel), 3), "-", "-"});
    bench::printTableAndCsv(t);

    std::cout << "\nmeasured: priority packets buy "
              << Table::percent(mean(rel) - 1)
              << " over the same cube without them (no paper number to "
                 "compare; the paper only sketches the design)\n";
}
