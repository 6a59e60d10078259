/**
 * @file
 * Figure 1(b) reproduction: average memory read latency decomposed into
 * controller queueing and core (array+transfer) latency for the three
 * homogeneous memory systems, averaged over the workload suite.
 */

#include "bench_util.hh"
#include "dram/dram_params.hh"

using namespace hetsim;
using namespace hetsim::sim;

void
bench::fig01b_latency_breakdown(ExperimentRunner &runner)
{
    bench::printHeader(
        "Figure 1(b)", "read latency breakdown (queue vs core)",
        "RLDRAM3 cuts queue latency drastically; LPDDR2 is ~41% slower "
        "than DDR3",
        runner.scale());

    runner.prefetchShared(
        {ExperimentRunner::paramsFor(MemConfig::BaselineDDR3),
         ExperimentRunner::paramsFor(MemConfig::HomoRLDRAM3),
         ExperimentRunner::paramsFor(MemConfig::HomoLPDDR2)});

    Table t({"memory", "queue (ns)", "core (ns)", "total (ns)",
             "row-hit rate"});
    double ddr3_total = 0, rld_total = 0, lp_total = 0;
    for (const MemConfig mem :
         {MemConfig::BaselineDDR3, MemConfig::HomoRLDRAM3,
          MemConfig::HomoLPDDR2}) {
        const SystemParams params = ExperimentRunner::paramsFor(mem);
        double queue = 0, service = 0, rowhit = 0;
        unsigned n = 0;
        for (const auto &wl : runner.workloads()) {
            const RunResult &r = runner.sharedRun(params, wl);
            if (r.latency.totalTicks <= 0)
                continue; // no DRAM traffic (e.g. ep)
            queue += r.latency.queueTicks * dram::kTickNs;
            service += r.latency.serviceTicks * dram::kTickNs;
            rowhit += r.rowHitRate;
            n += 1;
        }
        queue /= n;
        service /= n;
        rowhit /= n;
        const double total = queue + service;
        if (mem == MemConfig::BaselineDDR3)
            ddr3_total = total;
        if (mem == MemConfig::HomoRLDRAM3)
            rld_total = total;
        if (mem == MemConfig::HomoLPDDR2)
            lp_total = total;
        t.addRow({toString(mem), Table::num(queue, 1),
                  Table::num(service, 1), Table::num(total, 1),
                  Table::percent(rowhit)});
    }
    bench::printTableAndCsv(t);

    std::cout << "\nmeasured: RLDRAM3 total "
              << Table::percent(1 - rld_total / ddr3_total)
              << " below DDR3 (paper ~43% lower); LPDDR2 "
              << Table::percent(lp_total / ddr3_total - 1)
              << " above DDR3 (paper ~41% higher)\n";
}
