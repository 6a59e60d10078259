/**
 * @file
 * Section 6.1.1 prefetcher sensitivity: without the stream prefetcher
 * there is more exposed memory latency for CWF to attack, so the RL gain
 * rises (paper: 12.9% -> 17.3%).
 */

#include "bench_util.hh"

using namespace hetsim;
using namespace hetsim::sim;

void
bench::sec61_no_prefetcher(ExperimentRunner &runner)
{
    bench::printHeader(
        "Section 6.1.1 (no prefetcher)", "RL gain without prefetching",
        "RL improves 17.3% without the prefetcher vs 12.9% with it",
        runner.scale());

    runner.prefetchThroughput(
        {ExperimentRunner::paramsFor(MemConfig::CwfRL, true)},
        ExperimentRunner::paramsFor(MemConfig::BaselineDDR3, true));
    runner.prefetchThroughput(
        {ExperimentRunner::paramsFor(MemConfig::CwfRL, false)},
        ExperimentRunner::paramsFor(MemConfig::BaselineDDR3, false));

    Table t({"benchmark", "RL gain (prefetch on)",
             "RL gain (prefetch off)"});
    std::vector<double> with_pf, without_pf;
    for (const auto &wl : runner.workloads()) {
        const double on = runner.normalizedThroughput(
            ExperimentRunner::paramsFor(MemConfig::CwfRL, true),
            ExperimentRunner::paramsFor(MemConfig::BaselineDDR3, true),
            wl);
        const double off = runner.normalizedThroughput(
            ExperimentRunner::paramsFor(MemConfig::CwfRL, false),
            ExperimentRunner::paramsFor(MemConfig::BaselineDDR3, false),
            wl);
        with_pf.push_back(on);
        without_pf.push_back(off);
        t.addRow({wl, Table::num(on, 3), Table::num(off, 3)});
    }
    t.addRow({"MEAN", Table::num(mean(with_pf), 3),
              Table::num(mean(without_pf), 3)});
    bench::printTableAndCsv(t);

    std::cout << "\nmeasured: RL " << Table::percent(mean(with_pf) - 1)
              << " with prefetcher vs " << Table::percent(
                     mean(without_pf) - 1)
              << " without (paper: 12.9% vs 17.3%)\n";
}
