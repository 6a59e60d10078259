/**
 * @file
 * Figure 4 reproduction: the distribution of critical words (the word
 * of each DRAM line fetch the CPU actually requested) for every program
 * in the suite.
 */

#include "bench_util.hh"

using namespace hetsim;
using namespace hetsim::sim;

void
bench::fig04_critical_word_distribution(ExperimentRunner &runner)
{
    bench::printHeader(
        "Figure 4", "critical word distribution per program",
        "word 0 is critical in >50% of fetches for 21 of 27 programs; "
        "~67% of all fetches suite-wide; pointer chasers are uniform",
        runner.scale());

    const SystemParams baseline =
        ExperimentRunner::paramsFor(MemConfig::BaselineDDR3);
    runner.prefetchShared({baseline});

    Table t({"benchmark", "w0", "w1", "w2", "w3", "w4", "w5", "w6", "w7"});
    double w0_sum = 0;
    unsigned w0_majority = 0, counted = 0;
    for (const auto &wl : runner.workloads()) {
        const RunResult &r = runner.sharedRun(baseline, wl);
        std::vector<std::string> row{wl};
        for (unsigned w = 0; w < kWordsPerLine; ++w)
            row.push_back(Table::percent(r.criticalWordDist[w]));
        t.addRow(std::move(row));
        if (r.demandReads > 100) {
            w0_sum += r.criticalWordDist[0];
            w0_majority += r.criticalWordDist[0] > 0.5;
            counted += 1;
        }
    }
    bench::printTableAndCsv(t);

    std::cout << "\nmeasured: word 0 critical for "
              << Table::percent(w0_sum / counted)
              << " of fetches on average (paper: 67%); " << w0_majority
              << "/" << counted
              << " programs have a word-0 majority (paper: 21/27)\n";
}
