/**
 * @file
 * Table 1 reproduction: dump the simulated machine configuration and
 * self-check it against the paper's values by constructing the actual
 * objects (so the printout cannot drift from the code).
 */

#include "bench_util.hh"
#include "cache/hierarchy.hh"
#include "common/log.hh"
#include "cpu/core.hh"
#include "dram/channel.hh"
#include "sim/system_config.hh"

using namespace hetsim;

void
bench::table01_config(sim::ExperimentRunner &)
{
    bench::printHeader("Table 1", "simulator parameters",
                       "the simulated 8-core machine configuration");

    const cpu::Core::Params core;
    const cache::Hierarchy::Params hier;
    const dram::SchedulerPolicy sched;
    const auto ddr3 = dram::DeviceParams::ddr3_1600();

    sim_assert(core.robSize == 64, "ROB must match Table 1");
    sim_assert(core.width == 4, "width must match Table 1");
    sim_assert(hier.l1.sizeBytes == 32 * 1024 && hier.l1.ways == 2,
               "L1 must match Table 1");
    sim_assert(hier.l2.sizeBytes == 4 * 1024 * 1024 && hier.l2.ways == 8,
               "L2 must match Table 1");
    sim_assert(sched.readQueueCap == 48 && sched.writeQueueCap == 48,
               "queue sizes must match Table 1");
    sim_assert(sched.drainHighWatermark == 32 &&
                   sched.drainLowWatermark == 16,
               "watermarks must match Table 1");

    Table t({"parameter", "value", "paper (Table 1)"});
    t.addRow({"CMP size / frequency", "8 cores @ 3.2 GHz",
              "8-core, 3.2 GHz"});
    t.addRow({"re-order buffer", std::to_string(core.robSize) + " entries",
              "64 entry"});
    t.addRow({"fetch/dispatch/execute/retire",
              std::to_string(core.width) + " per cycle", "4 per cycle"});
    t.addRow({"L1 caches (per core)", "32KB / 2-way / 1 cycle",
              "32KB/2-way, 1-cycle"});
    t.addRow({"L2 cache (shared)", "4MB / 64B / 8-way / 10 cycles",
              "4MB/64B/8-way, 10-cycle"});
    t.addRow({"baseline DRAM", "4 x 72-bit DDR3-1600 channels",
              "4 72-bit channels"});
    t.addRow({"ranks / devices", "1 rank/DIMM, 9 devices/rank",
              "1 Rank/DIMM, 9 devices/Rank"});
    t.addRow({"total DRAM capacity",
              std::to_string(4 * ddr3.rankBytes() / (1ULL << 30)) + " GB",
              "8 GB"});
    t.addRow({"DRAM bus frequency", "800 MHz", "800MHz"});
    t.addRow({"read/write queues",
              std::to_string(sched.readQueueCap) + " / " +
                  std::to_string(sched.writeQueueCap) + " per channel",
              "48 entries per channel"});
    t.addRow({"high/low watermarks",
              std::to_string(sched.drainHighWatermark) + " / " +
                  std::to_string(sched.drainLowWatermark),
              "32/16"});
    bench::printTableAndCsv(t);

    std::cout << "\nself-check passed: constructed objects match Table 1\n";
}
