/**
 * @file
 * Figure 10 reproduction: whole-system energy of RL and DL normalized to
 * the DDR3 baseline, using the paper's Section 6.1.3 methodology (DRAM =
 * 25% of baseline system power; 1/3 of CPU power constant, the rest
 * scaling with activity).  Also reports memory-only energy, where the
 * paper cites a 15% reduction for RL.
 */

#include "bench_util.hh"
#include "power/system_energy.hh"

using namespace hetsim;
using namespace hetsim::sim;
using power::RunEnergyInput;
using power::SystemEnergyModel;

void
bench::fig10_system_energy(ExperimentRunner &runner)
{
    bench::printHeader(
        "Figure 10", "system energy normalized to DDR3",
        "RL cuts system energy ~6% (memory energy ~15%, memory power "
        "~1.9%); DL ~13%; bzip2/dealII/gobmk-class programs can regress",
        runner.scale());

    const SystemParams baseline =
        ExperimentRunner::paramsFor(MemConfig::BaselineDDR3);
    runner.prefetchShared({baseline,
                           ExperimentRunner::paramsFor(MemConfig::CwfRL),
                           ExperimentRunner::paramsFor(MemConfig::CwfDL),
                           ExperimentRunner::paramsFor(MemConfig::CwfRD)});

    Table t({"benchmark", "RL system", "RL memory", "DL system",
             "DL memory", "RD system"});
    std::vector<double> rl_sys, rl_mem, dl_sys, dl_mem, rd_sys;
    std::vector<double> rl_power;
    for (const auto &wl : runner.workloads()) {
        const RunResult &base = runner.sharedRun(baseline, wl);
        const RunEnergyInput base_in{base.dramPowerMw, base.aggIpc,
                                     base.seconds};
        auto eval = [&](MemConfig mem) {
            const RunResult &r =
                runner.sharedRun(ExperimentRunner::paramsFor(mem), wl);
            // Same demand-read quantum = same work; wall time differs.
            return SystemEnergyModel::compare(
                base_in,
                RunEnergyInput{r.dramPowerMw, r.aggIpc, r.seconds});
        };
        const auto rl = eval(MemConfig::CwfRL);
        const auto dl = eval(MemConfig::CwfDL);
        const auto rd = eval(MemConfig::CwfRD);
        rl_sys.push_back(rl.systemEnergyNorm);
        rl_mem.push_back(rl.dramEnergyNorm);
        rl_power.push_back(rl.dramPowerNorm);
        dl_sys.push_back(dl.systemEnergyNorm);
        dl_mem.push_back(dl.dramEnergyNorm);
        rd_sys.push_back(rd.systemEnergyNorm);
        t.addRow({wl, Table::num(rl.systemEnergyNorm, 3),
                  Table::num(rl.dramEnergyNorm, 3),
                  Table::num(dl.systemEnergyNorm, 3),
                  Table::num(dl.dramEnergyNorm, 3),
                  Table::num(rd.systemEnergyNorm, 3)});
    }
    t.addRow({"MEAN", Table::num(mean(rl_sys), 3),
              Table::num(mean(rl_mem), 3), Table::num(mean(dl_sys), 3),
              Table::num(mean(dl_mem), 3), Table::num(mean(rd_sys), 3)});
    bench::printTableAndCsv(t);

    std::cout << "\nmeasured vs baseline: RL system energy "
              << bench::versusBaseline(mean(rl_sys))
              << " (paper ~6% below); RL memory energy "
              << bench::versusBaseline(mean(rl_mem))
              << " (paper ~15% below); RL memory power "
              << bench::versusBaseline(mean(rl_power))
              << " (paper ~1.9% below); DL system energy "
              << bench::versusBaseline(mean(dl_sys))
              << " (paper ~13% below)\n";
}
