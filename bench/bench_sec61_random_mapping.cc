/**
 * @file
 * Section 6.1.1 sanity experiment: randomly mapping each line's fast
 * word (so the critical word is ~7x more likely to sit in LPDRAM) must
 * collapse the RL gains — proof that the *intelligent* data mapping, not
 * the extra channel, produces the speedup.
 */

#include "bench_util.hh"

using namespace hetsim;
using namespace hetsim::sim;

void
bench::sec61_random_mapping(ExperimentRunner &runner)
{
    bench::printHeader(
        "Section 6.1.1 (random mapping)",
        "RL with random critical-word placement",
        "random mapping yields only ~2.1% average improvement with many "
        "applications severely degraded",
        runner.scale());

    const SystemParams baseline =
        ExperimentRunner::paramsFor(MemConfig::BaselineDDR3);
    const SystemParams rl = ExperimentRunner::paramsFor(MemConfig::CwfRL);
    const SystemParams rnd =
        ExperimentRunner::paramsFor(MemConfig::CwfRLRandom);
    runner.prefetchThroughput({rl, rnd}, baseline);

    Table t({"benchmark", "RL (static w0)", "RL random",
             "random fast-served"});
    std::vector<double> rl_n, rnd_n;
    unsigned degraded = 0;
    for (const auto &wl : runner.workloads()) {
        const double a = runner.normalizedThroughput(rl, baseline, wl);
        const double b = runner.normalizedThroughput(rnd, baseline, wl);
        rl_n.push_back(a);
        rnd_n.push_back(b);
        degraded += b < 0.97;
        t.addRow({wl, Table::num(a, 3), Table::num(b, 3),
                  Table::percent(
                      runner.sharedRun(rnd, wl).servedByFastFraction)});
    }
    t.addRow({"MEAN", Table::num(mean(rl_n), 3), Table::num(mean(rnd_n), 3),
              "-"});
    bench::printTableAndCsv(t);

    std::cout << "\nmeasured: random mapping "
              << Table::percent(mean(rnd_n) - 1) << " vs static "
              << Table::percent(mean(rl_n) - 1) << "; " << degraded
              << " workloads degraded >3% under random placement\n";
}
