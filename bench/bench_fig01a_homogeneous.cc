/**
 * @file
 * Figure 1(a) reproduction: throughput of homogeneous RLDRAM3 and
 * LPDDR2 main memories, normalized to the all-DDR3 baseline, for every
 * workload in the suite.
 */

#include "bench_util.hh"

using namespace hetsim;
using namespace hetsim::sim;

void
bench::fig01a_homogeneous(ExperimentRunner &runner)
{
    bench::printHeader(
        "Figure 1(a)", "sensitivity to homogeneous DRAM flavours",
        "RLDRAM3 outperforms DDR3 by ~31% on average; LPDDR2 loses ~13%",
        runner.scale());

    const SystemParams baseline =
        ExperimentRunner::paramsFor(MemConfig::BaselineDDR3);
    const SystemParams rldram =
        ExperimentRunner::paramsFor(MemConfig::HomoRLDRAM3);
    const SystemParams lpddr =
        ExperimentRunner::paramsFor(MemConfig::HomoLPDDR2);
    runner.prefetchThroughput({rldram, lpddr}, baseline);

    Table t({"benchmark", "DDR3", "RLDRAM3", "LPDDR2"});
    std::vector<double> rl_norms, lp_norms;
    for (const auto &wl : runner.workloads()) {
        const double rl = runner.normalizedThroughput(rldram, baseline, wl);
        const double lp = runner.normalizedThroughput(lpddr, baseline, wl);
        rl_norms.push_back(rl);
        lp_norms.push_back(lp);
        t.addRow({wl, "1.000", Table::num(rl, 3), Table::num(lp, 3)});
    }
    t.addRow({"MEAN", "1.000", Table::num(mean(rl_norms), 3),
              Table::num(mean(lp_norms), 3)});
    bench::printTableAndCsv(t);

    std::cout << "\nmeasured: RLDRAM3 " << Table::percent(mean(rl_norms) - 1)
              << " vs paper +31%;  LPDDR2 "
              << Table::percent(mean(lp_norms) - 1) << " vs paper -13%\n";
}
