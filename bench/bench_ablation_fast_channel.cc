/**
 * @file
 * Ablation of the Section 4.2.4 overhead-reduction choices for the
 * critical-word channel:
 *
 *   (A) Fig. 5c (default): 4 x9 single-chip sub-ranks per sub-channel,
 *       ONE shared double-pumped address/command bus.
 *   (B) Fig. 5b: same data organisation but four dedicated command
 *       buses/controllers (the pre-optimisation design; costs ~4x the
 *       pins and controllers, so (A) must match its performance).
 *   (C) No sub-ranking: each fast access activates a wide 4-chip rank
 *       (higher activation energy, less rank parallelism).
 *
 * The paper's claims: sharing the bus is "safe ... without creating
 * contention" because the data:command occupancy ratio is 4:1, and
 * sub-ranking "reduces activation energy [and] increases rank and bank
 * level parallelism".
 */

#include "bench_util.hh"
#include "core/hetero_memory.hh"
#include "sim/simulator.hh"
#include "sim/system.hh"
#include "workloads/suite.hh"

using namespace hetsim;
using namespace hetsim::sim;

namespace
{

struct Variant
{
    const char *name;
    bool sharedBus;
    bool subRanked;
};

struct AblationResult
{
    double aggIpc = 0;
    double fastPowerMw = 0;
    std::uint64_t busConflicts = 0;
};

/** The default 8-core system with the variant's hand-built CWF backend
 *  in place of the config factory's. */
AblationResult
runVariant(const Variant &variant, const std::string &bench,
           const ExperimentScale &scale)
{
    cwf::CwfHeteroMemory::Params p;
    p.configName = variant.name;
    p.slowDevice = dram::DeviceParams::lpddr2_800();
    p.fastDevice = dram::DeviceParams::rldram3();
    p.fastDevice.lineColsPerRow *= 2; // word-granularity columns
    p.slowChipsPerRank = 8;
    p.sharedCommandBus = variant.sharedBus;
    if (variant.subRanked) {
        p.ranksPerFastSub = 4;
        p.fastChipsPerRank = 1;
    } else {
        p.ranksPerFastSub = 1;
        p.fastChipsPerRank = 4;
    }
    auto backend = std::make_unique<cwf::CwfHeteroMemory>(
        p, std::make_unique<cwf::StaticLayout>());
    const cwf::AggregatedFastChannel &fast = backend->fastChannel();

    const SystemParams params;
    System system(params, workloads::suite::byName(bench), params.cores,
                  std::move(backend));
    const RunResult r =
        runSimulation(system, scale.runConfig(params.cores, params.cores));

    AblationResult out;
    out.aggIpc = r.aggIpc;
    std::vector<const dram::Channel *> subs;
    for (unsigned s = 0; s < fast.subChannels(); ++s)
        subs.push_back(&fast.sub(s));
    out.fastPowerMw = cwf::aggregatePowerMw(subs);
    out.busConflicts = fast.arbiter().conflicts();
    return out;
}

} // namespace

void
bench::ablation_fast_channel(ExperimentRunner &runner)
{
    bench::printHeader(
        "Ablation (Section 4.2.4)",
        "shared command bus and x9 sub-ranking on the fast channel",
        "sharing the addr/cmd bus is contention-free (4:1 occupancy); "
        "sub-ranking cuts activation energy at no performance cost",
        runner.scale());

    const ExperimentScale &scale = runner.scale();
    const Variant variants[] = {
        {"A: shared bus + x9 sub-ranks (Fig. 5c)", true, true},
        {"B: dedicated buses + x9 sub-ranks (Fig. 5b)", false, true},
        {"C: shared bus + wide 4-chip rank", true, false},
    };

    for (const std::string bench : {"leslie3d", "mcf", "libquantum"}) {
        std::cout << bench << ":\n";
        Table t({"variant", "aggregate IPC", "fast DIMM power (mW)",
                 "cmd-bus conflicts"});
        double ipc_a = 0, ipc_b = 0;
        for (const auto &variant : variants) {
            const AblationResult r = runVariant(variant, bench, scale);
            if (variant.sharedBus && variant.subRanked)
                ipc_a = r.aggIpc;
            if (!variant.sharedBus)
                ipc_b = r.aggIpc;
            t.addRow({variant.name, Table::num(r.aggIpc, 2),
                      Table::num(r.fastPowerMw, 0),
                      std::to_string(r.busConflicts)});
        }
        std::cout << t.render();
        std::cout << "shared-vs-dedicated performance delta: "
                  << Table::percent(ipc_a / ipc_b - 1)
                  << " (paper: sharing is safe)\n\n";
    }
}
