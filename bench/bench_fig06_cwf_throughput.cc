/**
 * @file
 * Figure 6 reproduction — the headline result: throughput of the three
 * critical-word-first heterogeneous systems (RD, RL, DL) normalized to
 * the 8 GB DDR3 baseline, per benchmark and on average.
 */

#include "bench_util.hh"

using namespace hetsim;
using namespace hetsim::sim;

void
bench::fig06_cwf_throughput(ExperimentRunner &runner)
{
    bench::printHeader(
        "Figure 6", "CWF heterogeneous system throughput",
        "RD +21%, RL +12.9%, DL -9% on average; word-0 programs (cg, lu, "
        "mg, sp, GemsFDTD, leslie3d, libquantum) gain most; bzip2 "
        "regresses ~4% under RL",
        runner.scale());

    const SystemParams baseline =
        ExperimentRunner::paramsFor(MemConfig::BaselineDDR3);
    const SystemParams rd = ExperimentRunner::paramsFor(MemConfig::CwfRD);
    const SystemParams rl = ExperimentRunner::paramsFor(MemConfig::CwfRL);
    const SystemParams dl = ExperimentRunner::paramsFor(MemConfig::CwfDL);
    runner.prefetchThroughput({rd, rl, dl}, baseline);

    Table t({"benchmark", "RD", "RL", "DL"});
    std::vector<double> rd_n, rl_n, dl_n;
    for (const auto &wl : runner.workloads()) {
        const double r1 = runner.normalizedThroughput(rd, baseline, wl);
        const double r2 = runner.normalizedThroughput(rl, baseline, wl);
        const double r3 = runner.normalizedThroughput(dl, baseline, wl);
        rd_n.push_back(r1);
        rl_n.push_back(r2);
        dl_n.push_back(r3);
        t.addRow({wl, Table::num(r1, 3), Table::num(r2, 3),
                  Table::num(r3, 3)});
    }
    t.addRow({"MEAN", Table::num(mean(rd_n), 3), Table::num(mean(rl_n), 3),
              Table::num(mean(dl_n), 3)});
    bench::printTableAndCsv(t);

    std::cout << "\nmeasured: RD " << Table::percent(mean(rd_n) - 1)
              << " (paper +21%), RL " << Table::percent(mean(rl_n) - 1)
              << " (paper +12.9%), DL " << Table::percent(mean(dl_n) - 1)
              << " (paper -9%)\n";
}
