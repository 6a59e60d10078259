/**
 * @file
 * Figure 8 reproduction: the fraction of critical-word requests served
 * by the fast RLDRAM3 DIMM under the static word-0 RL organisation.
 */

#include "bench_util.hh"
#include "workloads/suite.hh"

using namespace hetsim;
using namespace hetsim::sim;

void
bench::fig08_rldram_service_fraction(ExperimentRunner &runner)
{
    bench::printHeader(
        "Figure 8", "critical words served by RLDRAM3 (static word 0)",
        "~67% suite-wide; near-100% for word-0 programs, low for "
        "lbm/mcf/milc/omnetpp",
        runner.scale());

    const SystemParams rl = ExperimentRunner::paramsFor(MemConfig::CwfRL);
    runner.prefetchShared({rl});

    Table t({"benchmark", "served by RLDRAM3", "early wakes / miss"});
    double sum = 0;
    unsigned counted = 0;
    for (const auto &wl : runner.workloads()) {
        const RunResult &r = runner.sharedRun(rl, wl);
        t.addRow({wl, Table::percent(r.servedByFastFraction),
                  Table::percent(r.earlyWakeFraction)});
        if (r.demandReads > 100) {
            sum += r.servedByFastFraction;
            counted += 1;
        }
    }
    bench::printTableAndCsv(t);

    std::cout << "\nmeasured: " << Table::percent(sum / counted)
              << " of critical-word requests hit the fast DIMM on average "
                 "(paper: 67% static success rate)\n";

    // Sanity split the paper calls out: winners vs pointer chasers.
    double win = 0, chase = 0;
    const auto winners = workloads::suite::word0Winners();
    const auto chasers = workloads::suite::pointerChasers();
    for (const auto &wl : winners)
        win += runner.sharedRun(rl, wl).servedByFastFraction;
    for (const auto &wl : chasers)
        chase += runner.sharedRun(rl, wl).servedByFastFraction;
    std::cout << "word-0 winners average: "
              << Table::percent(win / winners.size())
              << "; pointer chasers average: "
              << Table::percent(chase / chasers.size()) << "\n";
}
