/**
 * @file
 * Table 2 reproduction: the device timing parameters, printed from the
 * live DeviceParams objects in both nanoseconds (the paper's units) and
 * derived memory-clock cycles, with a self-check against Table 2.
 */

#include <cmath>

#include "bench_util.hh"
#include "common/log.hh"
#include "dram/dram_params.hh"

using namespace hetsim;
using dram::DeviceParams;

namespace
{

std::string
ns(unsigned cycles, const DeviceParams &dev)
{
    if (cycles == 0)
        return "-";
    return Table::num(cycles * dev.tCkNs, 2) + " (" +
           std::to_string(cycles) + " cyc)";
}

} // namespace

void
bench::table02_timing(sim::ExperimentRunner &)
{
    bench::printHeader("Table 2", "DRAM timing parameters",
                       "tRC 50/12/60 ns, tRL 13.5/10/18 ns, ... for "
                       "DDR3/RLDRAM3/LPDDR2");

    const auto d3 = DeviceParams::ddr3_1600();
    const auto rl = DeviceParams::rldram3();
    const auto lp = DeviceParams::lpddr2_800();

    // Self-check the ns-level values of Table 2 (cycle-rounded upward).
    sim_assert(d3.tRC == d3.cyc(50.0) && rl.tRC == rl.cyc(12.0) &&
                   lp.tRC == lp.cyc(60.0),
               "tRC drifted from Table 2");
    sim_assert(d3.tRL == d3.cyc(13.5) && rl.tRL == rl.cyc(10.0) &&
                   lp.tRL == lp.cyc(18.0),
               "tRL drifted from Table 2");
    sim_assert(rl.tWTR == 0 && rl.tFAW == 0,
               "RLDRAM3 must have no tWTR/tFAW");

    Table t({"parameter", "DDR3", "RLDRAM3", "LPDDR2", "paper (ns)"});
    t.addRow({"tCK", Table::num(d3.tCkNs, 2), Table::num(rl.tCkNs, 2),
              Table::num(lp.tCkNs, 2), "-"});
    t.addRow({"tRC", ns(d3.tRC, d3), ns(rl.tRC, rl), ns(lp.tRC, lp),
              "50 / 12 / 60"});
    t.addRow({"tRCD", ns(d3.tRCD, d3), ns(rl.tRCD, rl), ns(lp.tRCD, lp),
              "13.5 / - / 18"});
    t.addRow({"tRL", ns(d3.tRL, d3), ns(rl.tRL, rl), ns(lp.tRL, lp),
              "13.5 / 10 / 18"});
    t.addRow({"tRP", ns(d3.tRP, d3), ns(rl.tRP, rl), ns(lp.tRP, lp),
              "13.5 / - / 18"});
    t.addRow({"tRAS", ns(d3.tRAS, d3), ns(rl.tRAS, rl), ns(lp.tRAS, lp),
              "37 / - / 42"});
    t.addRow({"tRTRS", std::to_string(d3.tRTRS) + " cyc",
              std::to_string(rl.tRTRS) + " cyc",
              std::to_string(lp.tRTRS) + " cyc", "2 bus cycles"});
    t.addRow({"tFAW", ns(d3.tFAW, d3), ns(rl.tFAW, rl), ns(lp.tFAW, lp),
              "40 / - / 50"});
    t.addRow({"tWTR", ns(d3.tWTR, d3), ns(rl.tWTR, rl), ns(lp.tWTR, lp),
              "7.5 / 0 / 7.5"});
    t.addRow({"tWL", ns(d3.tWL, d3), ns(rl.tWL, rl), ns(lp.tWL, lp),
              "6.5 / 11.25 / 6.5"});
    t.addRow({"banks/rank", std::to_string(d3.banksPerRank),
              std::to_string(rl.banksPerRank),
              std::to_string(lp.banksPerRank), "8 / 16 / 8 (Sec. 2)"});
    t.addRow({"page policy", toString(d3.policy), toString(rl.policy),
              toString(lp.policy), "open / close / open"});
    bench::printTableAndCsv(t);

    std::cout << "\nself-check passed: timings match Table 2\n";
}
