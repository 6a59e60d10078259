/**
 * @file
 * Figure 9 reproduction: the RL family — static (RL), adaptive per-line
 * placement (RL AD), the oracle upper bound (RL OR) — against the
 * all-RLDRAM3 system, normalized to the DDR3 baseline.
 */

#include "bench_util.hh"

using namespace hetsim;
using namespace hetsim::sim;

void
bench::fig09_adaptive_oracle(ExperimentRunner &runner)
{
    bench::printHeader(
        "Figure 9", "adaptive and oracle critical-word placement",
        "RL +12.9% < RL AD +15.7% < RL OR +28% < all-RLDRAM3; mcf gains "
        "most from adaptation (words 0/3)",
        runner.scale());

    const SystemParams baseline =
        ExperimentRunner::paramsFor(MemConfig::BaselineDDR3);
    const std::vector<MemConfig> configs{
        MemConfig::CwfRL, MemConfig::CwfRLAdaptive, MemConfig::CwfRLOracle,
        MemConfig::HomoRLDRAM3};
    {
        std::vector<SystemParams> sweep;
        for (const MemConfig mem : configs)
            sweep.push_back(ExperimentRunner::paramsFor(mem));
        runner.prefetchThroughput(sweep, baseline);
    }

    Table t({"benchmark", "RL", "RL AD", "RL OR", "RLDRAM3",
             "AD fast-served", "OR fast-served"});
    std::vector<std::vector<double>> norms(configs.size());
    for (const auto &wl : runner.workloads()) {
        std::vector<std::string> row{wl};
        for (std::size_t i = 0; i < configs.size(); ++i) {
            const double n = runner.normalizedThroughput(
                ExperimentRunner::paramsFor(configs[i]), baseline, wl);
            norms[i].push_back(n);
            row.push_back(Table::num(n, 3));
        }
        row.push_back(Table::percent(
            runner
                .sharedRun(
                    ExperimentRunner::paramsFor(MemConfig::CwfRLAdaptive),
                    wl)
                .servedByFastFraction));
        row.push_back(Table::percent(
            runner
                .sharedRun(
                    ExperimentRunner::paramsFor(MemConfig::CwfRLOracle),
                    wl)
                .servedByFastFraction));
        t.addRow(std::move(row));
    }
    std::vector<std::string> avg{"MEAN"};
    for (auto &n : norms)
        avg.push_back(Table::num(mean(n), 3));
    avg.push_back("-");
    avg.push_back("-");
    t.addRow(std::move(avg));
    bench::printTableAndCsv(t);

    std::cout << "\nmeasured means: RL " << Table::num(mean(norms[0]), 3)
              << " <= RL AD " << Table::num(mean(norms[1]), 3)
              << " <= RL OR " << Table::num(mean(norms[2]), 3)
              << " <= RLDRAM3 " << Table::num(mean(norms[3]), 3)
              << "  (paper: 1.129 < 1.157 < 1.28 < all-RLDRAM3)\n";
}
