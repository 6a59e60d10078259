/**
 * @file
 * Figure 2 reproduction: per-chip power of the three DRAM flavours as a
 * function of data-bus utilization (analytic evaluation of the IDD-based
 * power model, exactly as the Micron calculators are driven).
 */

#include "bench_util.hh"
#include "common/log.hh"
#include "power/chip_power.hh"

using namespace hetsim;
using power::ChipPowerModel;

void
bench::fig02_power_vs_utilization(sim::ExperimentRunner &)
{
    bench::printHeader(
        "Figure 2", "chip power vs bus utilization",
        "RLDRAM3's background power dominates at low utilization; the "
        "gap to DDR3 shrinks as utilization rises; LPDDR2 stays lowest");

    const auto d3 = dram::DeviceParams::ddr3_1600();
    const auto rl = dram::DeviceParams::rldram3();
    const auto lp = dram::DeviceParams::lpddr2_800();
    const auto lp_mobile = dram::DeviceParams::lpddr2_800_noOdt();

    Table t({"utilization", "DDR3 (mW)", "RLDRAM3 (mW)",
             "LPDDR2 server (mW)", "LPDDR2 mobile (mW)"});
    for (int pct = 0; pct <= 100; pct += 10) {
        const double u = pct / 100.0;
        t.addRow({std::to_string(pct) + "%",
                  Table::num(ChipPowerModel::powerAtUtilizationMw(d3, u), 1),
                  Table::num(ChipPowerModel::powerAtUtilizationMw(rl, u), 1),
                  Table::num(ChipPowerModel::powerAtUtilizationMw(lp, u), 1),
                  Table::num(
                      ChipPowerModel::powerAtUtilizationMw(lp_mobile, u),
                      1)});
    }
    bench::printTableAndCsv(t);

    const double r0 = ChipPowerModel::powerAtUtilizationMw(rl, 0.0) /
                      ChipPowerModel::powerAtUtilizationMw(d3, 0.0);
    const double r8 = ChipPowerModel::powerAtUtilizationMw(rl, 0.8) /
                      ChipPowerModel::powerAtUtilizationMw(d3, 0.8);
    sim_assert(r8 < r0, "Fig. 2 shape: gap must shrink with utilization");
    std::cout << "\nmeasured: RLDRAM3/DDR3 power ratio " << Table::num(r0, 2)
              << "x at idle -> " << Table::num(r8, 2)
              << "x at 80% utilization (paper: \"more comparable\")\n";
}
