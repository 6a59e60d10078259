/**
 * @file
 * Config-driven single-run CLI: pick any named memory configuration and
 * workload (synthetic or trace file), run one warmup plus measurement
 * window and dump the full gem5-style statistics report.  Settings come
 * from key=value arguments only; the HETSIM_* environment knobs keep
 * their library meaning (tracing, checking, profiling).
 * With HETSIM_PROFILE=1 the report is followed by the main loop's
 * per-component host-time split.
 *
 * Usage:
 *   run_config [mem.config=RL] [bench=leslie3d | trace=<file>]
 *              [sim.reads=8000] [sim.warmup=<sim.reads>] [cores=8]
 *              [prefetch=1] [parity.rate=0.0] [seed=12345]
 *
 * Examples:
 *   run_config mem.config=RL-AD bench=mcf sim.reads=40000
 *   run_config mem.config=DDR3 trace=mytrace.txt
 */

#include <iostream>
#include <memory>

#include "common/config.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "sim/system.hh"
#include "workloads/suite.hh"
#include "workloads/trace.hh"

using namespace hetsim;
using namespace hetsim::sim;

int
main(int argc, char **argv)
{
    Config cfg;
    cfg.parseArgs(argc, argv,
                  {"mem.config", "bench", "trace", "sim.reads", "sim.warmup",
                   "cores", "prefetch", "parity.rate", "seed"});

    SystemParams params;
    params.mem = memConfigByName(cfg.getString("mem.config", "RL"));
    params.cores =
        static_cast<unsigned>(cfg.getUint("cores", params.cores));
    params.prefetcherEnabled = cfg.getBool("prefetch", true);
    params.fault.parityFailRate = cfg.getDouble("parity.rate", 0.0);
    params.seed = cfg.getUint("seed", params.seed);

    std::unique_ptr<System> system;
    if (cfg.has("trace")) {
        const std::string path = cfg.getString("trace", "");
        const auto trace = workloads::TraceSource::fromFile(path);
        std::cout << "trace '" << path << "': " << trace.records()
                  << " records, looping\n";
        // Every core replays its own copy, rebased into its own slice.
        system = std::make_unique<System>(
            params, path, params.cores,
            [&trace](std::uint8_t, Addr base) {
                return cpu::Core::OpSource(
                    [src = trace, base]() mutable {
                        return src.next(base);
                    });
            });
    } else {
        const std::string bench = cfg.getString("bench", "leslie3d");
        system = std::make_unique<System>(
            params, workloads::suite::byName(bench), params.cores);
    }

    RunConfig rc;
    rc.measureReads = cfg.getUint("sim.reads", 8000);
    rc.warmupReads = cfg.getUint("sim.warmup", rc.measureReads);
    const RunResult result = runSimulation(*system, rc);

    std::cout << renderReport(*system, result);
    if (system->profilingEnabled())
        std::cout << "self-profile: " << system->profileJson() << "\n";
    return 0;
}
