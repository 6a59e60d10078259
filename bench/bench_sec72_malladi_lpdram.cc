/**
 * @file
 * Section 7.2 reproduction: the Malladi-et-al-style alternate LPDRAM
 * design — unmodified mobile chips without ODT/DLL, deeper and more
 * eagerly entered sleep states.  The paper finds LPDRAM power drops
 * further with very little performance loss, boosting RL's energy
 * savings to ~26%.
 */

#include "bench_util.hh"
#include "power/system_energy.hh"

using namespace hetsim;
using namespace hetsim::sim;
using power::RunEnergyInput;
using power::SystemEnergyModel;

void
bench::sec72_malladi_lpdram(ExperimentRunner &runner)
{
    bench::printHeader(
        "Section 7.2 (Malladi-style LPDRAM)",
        "RL with unmodified mobile DRAM chips",
        "energy savings boosted (memory energy savings toward ~26%) with "
        "very little performance loss",
        runner.scale());

    const SystemParams baseline =
        ExperimentRunner::paramsFor(MemConfig::BaselineDDR3);
    const SystemParams rl = ExperimentRunner::paramsFor(MemConfig::CwfRL);
    const SystemParams malladi =
        ExperimentRunner::paramsFor(MemConfig::CwfRLMalladi);
    runner.prefetchThroughput({rl, malladi}, baseline);

    Table t({"benchmark", "RL perf", "Malladi perf", "RL mem energy",
             "Malladi mem energy"});
    std::vector<double> rl_perf, ml_perf, rl_mem, ml_mem;
    for (const auto &wl : runner.workloads()) {
        const RunResult &base = runner.sharedRun(baseline, wl);
        const RunEnergyInput base_in{base.dramPowerMw, base.aggIpc,
                                     base.seconds};
        const RunResult &a = runner.sharedRun(rl, wl);
        const RunResult &b = runner.sharedRun(malladi, wl);
        const auto ea = SystemEnergyModel::compare(
            base_in, RunEnergyInput{a.dramPowerMw, a.aggIpc, a.seconds});
        const auto eb = SystemEnergyModel::compare(
            base_in, RunEnergyInput{b.dramPowerMw, b.aggIpc, b.seconds});
        rl_perf.push_back(runner.normalizedThroughput(rl, baseline, wl));
        ml_perf.push_back(
            runner.normalizedThroughput(malladi, baseline, wl));
        rl_mem.push_back(ea.dramEnergyNorm);
        ml_mem.push_back(eb.dramEnergyNorm);
        t.addRow({wl, Table::num(rl_perf.back(), 3),
                  Table::num(ml_perf.back(), 3),
                  Table::num(rl_mem.back(), 3),
                  Table::num(ml_mem.back(), 3)});
    }
    t.addRow({"MEAN", Table::num(mean(rl_perf), 3),
              Table::num(mean(ml_perf), 3), Table::num(mean(rl_mem), 3),
              Table::num(mean(ml_mem), 3)});
    bench::printTableAndCsv(t);

    std::cout << "\nmeasured: RL memory energy "
              << bench::versusBaseline(mean(rl_mem))
              << " baseline with server-adapted chips, "
              << bench::versusBaseline(mean(ml_mem))
              << " with mobile chips (paper: savings grow toward ~26%), "
                 "performance delta "
              << Table::percent(mean(ml_perf) - mean(rl_perf)) << "\n";
}
