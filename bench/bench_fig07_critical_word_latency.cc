/**
 * @file
 * Figure 7 reproduction: average DRAM latency of the *requested* critical
 * word under the baseline and the three CWF systems.  The paper reports
 * 30% (RD) and 22% (RL) reductions versus DDR3.
 */

#include "bench_util.hh"
#include "dram/dram_params.hh"

using namespace hetsim;
using namespace hetsim::sim;

void
bench::fig07_critical_word_latency(ExperimentRunner &runner)
{
    bench::printHeader(
        "Figure 7", "critical word latency",
        "RD cuts critical-word latency ~30%, RL ~22% versus the DDR3 "
        "baseline",
        runner.scale());

    const std::vector<MemConfig> configs{
        MemConfig::BaselineDDR3, MemConfig::CwfRD, MemConfig::CwfRL,
        MemConfig::CwfDL};
    {
        std::vector<SystemParams> shared;
        for (const MemConfig mem : configs)
            shared.push_back(ExperimentRunner::paramsFor(mem));
        runner.prefetchShared(shared);
    }

    Table t({"benchmark", "DDR3 (ns)", "RD (ns)", "RL (ns)", "DL (ns)"});
    std::vector<double> sums(configs.size(), 0.0);
    unsigned counted = 0;
    for (const auto &wl : runner.workloads()) {
        std::vector<std::string> row{wl};
        std::vector<double> vals;
        for (const MemConfig mem : configs) {
            const RunResult &r =
                runner.sharedRun(ExperimentRunner::paramsFor(mem), wl);
            vals.push_back(r.criticalWordLatencyTicks * dram::kTickNs);
            row.push_back(Table::num(vals.back(), 1));
        }
        t.addRow(std::move(row));
        if (vals[0] > 0) {
            for (std::size_t i = 0; i < vals.size(); ++i)
                sums[i] += vals[i];
            counted += 1;
        }
    }
    std::vector<std::string> avg{"MEAN"};
    for (const double s : sums)
        avg.push_back(Table::num(s / counted, 1));
    t.addRow(std::move(avg));
    bench::printTableAndCsv(t);

    std::cout << "\nmeasured reductions vs DDR3: RD "
              << Table::percent(1 - sums[1] / sums[0]) << " (paper 30%), RL "
              << Table::percent(1 - sums[2] / sums[0])
              << " (paper 22%), DL "
              << Table::percent(1 - sums[3] / sums[0]) << "\n";
}
