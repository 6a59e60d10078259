/**
 * @file
 * Figure 11 reproduction: scatter of baseline bandwidth utilization vs
 * the RL scheme's system-energy savings, one point per workload.  The
 * paper's observation: savings grow with utilization because the
 * RLDRAM3/DDR3 power gap shrinks when busy.
 */

#include <algorithm>

#include "bench_util.hh"
#include "power/system_energy.hh"

using namespace hetsim;
using namespace hetsim::sim;
using power::RunEnergyInput;
using power::SystemEnergyModel;

void
bench::fig11_bw_vs_energy(ExperimentRunner &runner)
{
    bench::printHeader(
        "Figure 11", "bandwidth utilization vs RL energy savings",
        "energy savings generally increase with bandwidth utilization; "
        "low-utilization programs can see net increases",
        runner.scale());

    const SystemParams baseline =
        ExperimentRunner::paramsFor(MemConfig::BaselineDDR3);
    const SystemParams rl = ExperimentRunner::paramsFor(MemConfig::CwfRL);
    runner.prefetchShared({baseline, rl});

    struct Point
    {
        std::string name;
        double utilization;
        double savings;
    };
    std::vector<Point> points;
    for (const auto &wl : runner.workloads()) {
        const RunResult &base = runner.sharedRun(baseline, wl);
        const RunResult &het = runner.sharedRun(rl, wl);
        const auto res = SystemEnergyModel::compare(
            RunEnergyInput{base.dramPowerMw, base.aggIpc, base.seconds},
            RunEnergyInput{het.dramPowerMw, het.aggIpc, het.seconds});
        points.push_back(
            Point{wl, base.busUtilization, 1.0 - res.systemEnergyNorm});
    }
    std::sort(points.begin(), points.end(),
              [](const Point &a, const Point &b) {
                  return a.utilization < b.utilization;
              });

    Table t({"benchmark", "baseline bus utilization",
             "RL system energy savings"});
    for (const auto &p : points) {
        t.addRow({p.name, Table::percent(p.utilization),
                  Table::percent(p.savings)});
    }
    bench::printTableAndCsv(t);

    // Trend check: mean savings in the busiest third vs the idlest third.
    const std::size_t third = points.size() / 3;
    if (third == 0) {
        std::cout << "\n(too few workloads for a trend split)\n";
        return;
    }
    double low = 0, high = 0;
    for (std::size_t i = 0; i < third; ++i) {
        low += points[i].savings;
        high += points[points.size() - 1 - i].savings;
    }
    std::cout << "\ntrend: mean savings " << Table::percent(low / third)
              << " in the least-utilized third vs "
              << Table::percent(high / third)
              << " in the most-utilized third (paper: savings grow with "
                 "utilization)\n";
}
