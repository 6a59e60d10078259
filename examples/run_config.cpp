/**
 * @file
 * Config-driven single-run CLI: pick any named memory configuration and
 * workload (synthetic or trace file), run one measurement window and
 * dump the full gem5-style statistics report.
 *
 * Usage:
 *   run_config [mem.config=RL] [bench=leslie3d | trace=<file>]
 *              [sim.reads=8000] [sim.warmup=4000] [cores=8]
 *              [prefetch=1] [parity.rate=0.0] [seed=12345]
 *
 * Examples:
 *   run_config mem.config=RL-AD bench=mcf sim.reads=40000
 *   run_config mem.config=DDR3 trace=mytrace.txt
 */

#include <iostream>
#include <memory>

#include "cache/hierarchy.hh"
#include "common/config.hh"
#include "cpu/core.hh"
#include "sim/report.hh"
#include "sim/system.hh"
#include "workloads/suite.hh"
#include "workloads/trace.hh"

using namespace hetsim;
using namespace hetsim::sim;

namespace
{

/** Trace-driven run: hand-assembled stack (System assumes suite
 *  profiles, so traces wire the pieces directly). */
int
runTrace(const Config &cfg, const SystemParams &params)
{
    const std::string path = cfg.getString("trace", "");
    auto trace = workloads::TraceSource::fromFile(path);
    std::cout << "trace '" << path << "': " << trace.records()
              << " records, looping\n";

    auto backend = buildBackend(params);
    cache::Hierarchy::Params hp;
    hp.cores = params.cores;
    hp.prefetch.enabled = params.prefetcherEnabled;
    cache::Hierarchy hierarchy(hp, *backend);

    // Every core replays the same trace rebased into its own region.
    std::vector<std::unique_ptr<workloads::TraceSource>> traces;
    std::vector<std::unique_ptr<cpu::Core>> cores;
    for (unsigned c = 0; c < params.cores; ++c) {
        traces.push_back(
            std::make_unique<workloads::TraceSource>(trace));
        auto *src = traces.back().get();
        const Addr rebase = static_cast<Addr>(c) << 30;
        cores.push_back(std::make_unique<cpu::Core>(
            static_cast<std::uint8_t>(c), cpu::Core::Params{},
            [src, rebase] { return src->next(rebase); }, hierarchy));
    }
    hierarchy.setWakeFn(
        [&cores](std::uint8_t core, std::uint16_t slot, Tick when) {
            cores.at(core)->wake(slot, when);
        });

    const auto reads = cfg.getUint("sim.reads", 8000);
    const auto &stats = hierarchy.stats();
    Tick now = 0;
    while (stats.demandCompletions.value() < reads && now < 100'000'000) {
        for (auto &core : cores)
            core->tick(now);
        hierarchy.tick(now);
        backend->tick(now);
        now += 1;
    }

    double agg_ipc = 0;
    for (auto &core : cores)
        agg_ipc += core->ipc(now);
    std::cout << "config " << backend->name() << ": " << now
              << " ticks, aggregate IPC " << agg_ipc
              << ", demand reads " << stats.demandCompletions.value()
              << ", critical word latency "
              << stats.criticalWordLatency.mean() << " cycles\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Config cfg;
    cfg.importEnvironment();
    cfg.parseArgs(argc, argv);

    SystemParams params;
    params.mem = memConfigByName(cfg.getString("mem.config", "RL"));
    params.cores =
        static_cast<unsigned>(cfg.getUint("cores", params.cores));
    params.prefetcherEnabled = cfg.getBool("prefetch", true);
    params.fault.fastExtraTransient = cfg.getDouble("parity.rate", 0.0);
    params.seed = cfg.getUint("seed", params.seed);

    if (cfg.has("trace"))
        return runTrace(cfg, params);

    const std::string bench = cfg.getString("bench", "leslie3d");
    System system(params, workloads::suite::byName(bench),
                  params.cores);

    RunConfig rc;
    rc.measureReads = cfg.getUint("sim.reads", 8000);
    rc.warmupReads = cfg.getUint("sim.warmup", rc.measureReads);
    const RunResult result = runSimulation(system, rc);

    std::cout << renderReport(system, result);
    return 0;
}
