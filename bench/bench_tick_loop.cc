/**
 * @file
 * Simulation-throughput benchmark for the main loop and the parallel
 * sweep:
 *
 *  1. Main-loop self-profile (HETSIM_PROFILE instrumentation): one
 *     golden-shaped run (CwfRL, mcf, 8 cores) with per-component-group
 *     wall clock over every stepped tick.
 *
 *  2. The six-config mcf golden sweep, serial vs. HETSIM_JOBS workers.
 *
 * Besides the usual table + CSV, a machine-readable summary is printed
 * between "--- bench json ---" markers; scripts/assemble_bench.sh
 * extracts it into BENCH_tick_loop.json so the repo carries a pinned
 * baseline of these numbers.
 */

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>

#include "bench_util.hh"
#include "common/thread_pool.hh"
#include "sim/golden.hh"
#include "workloads/suite.hh"

using namespace hetsim;
using namespace hetsim::sim;

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    const auto d = std::chrono::steady_clock::now() - start;
    return std::chrono::duration<double>(d).count();
}

/** One golden-shaped run with the main-loop self-profiler armed. */
struct ProfiledRun
{
    System::SelfProfile profile;
    std::string json;
};

ProfiledRun
measureSelfProfile()
{
    SystemParams params;
    params.mem = MemConfig::CwfRL;
    params.seed = kGoldenSeed;
    const auto &profile = workloads::suite::byName(kGoldenBenchmark);
    System system(params, profile, kGoldenCores);
    system.setProfiling(true);
    (void)runSimulation(system, goldenRunConfig());
    return ProfiledRun{system.selfProfile(), system.profileJson()};
}

/** Wall clock of the six-config mcf golden sweep through the runner. */
double
measureSweep(unsigned jobs)
{
    ExperimentRunner runner(jobs);
    std::vector<RunSpec> specs;
    for (const auto &spec : goldenSpecs()) {
        SystemParams p = ExperimentRunner::paramsFor(spec.config);
        p.seed = kGoldenSeed;
        specs.push_back(RunSpec{p, kGoldenBenchmark, kGoldenCores});
    }
    const auto start = std::chrono::steady_clock::now();
    runner.prefetch(specs);
    return secondsSince(start);
}

} // namespace

int
main()
{
    bench::printHeader(
        "Simulator performance", "main-loop profile and sweep throughput",
        "n/a (engineering benchmark: per-component host cost and the "
        "HETSIM_JOBS parallel sweep engine)");

    const unsigned jobs = ThreadPool::jobsFromEnv();
    const unsigned detected_cpus =
        std::max(1u, std::thread::hardware_concurrency());

    // ---- part 1: main-loop self-profile ----
    const ProfiledRun prof = measureSelfProfile();
    const double total_ns = prof.profile.coresNs +
                            prof.profile.hierarchyNs +
                            prof.profile.backendNs;
    const auto share = [total_ns](double ns) {
        return total_ns > 0 ? Table::percent(ns / total_ns)
                            : std::string("n/a");
    };
    Table tp({"component", "wall ms", "share"});
    tp.addRow({"cores", Table::num(prof.profile.coresNs / 1e6, 2),
               share(prof.profile.coresNs)});
    tp.addRow({"hierarchy", Table::num(prof.profile.hierarchyNs / 1e6, 2),
               share(prof.profile.hierarchyNs)});
    tp.addRow({"backend", Table::num(prof.profile.backendNs / 1e6, 2),
               share(prof.profile.backendNs)});
    bench::printTableAndCsv(tp);
    std::cout << "\nmain-loop self-profile over " << prof.profile.ticks
              << " stepped ticks (HETSIM_PROFILE instrumentation)\n\n";

    // ---- part 2: six-config mcf golden sweep ----
    // On a single-CPU host the "parallel" run cannot overlap work, so
    // the comparison degenerates into a worker-handoff overhead check —
    // record the detected CPU count and label the run honestly instead
    // of reporting a bogus sub-1x "parallel speedup".
    const bool sweep_parallel = jobs > 1 && detected_cpus > 1;
    const char *sweep_mode =
        sweep_parallel ? "parallel" : "overhead_check";
    const double sweep_serial = measureSweep(1);
    const double sweep_jobs = measureSweep(jobs);
    const double sweep_speedup = sweep_serial / sweep_jobs;

    Table t2({"sweep", "jobs", "seconds"});
    t2.addRow({"serial", "1", Table::num(sweep_serial, 3)});
    t2.addRow({sweep_parallel ? "parallel" : "parallel (overhead check)",
               std::to_string(jobs), Table::num(sweep_jobs, 3)});
    bench::printTableAndCsv(t2);
    std::cout << "\nsix-config mcf sweep speedup "
              << Table::num(sweep_speedup, 2) << "x with HETSIM_JOBS="
              << jobs << " on " << detected_cpus
              << " detected CPU(s) [" << sweep_mode << "]\n";

    std::ostringstream json;
    json.setf(std::ios::fixed);
    json.precision(4);
    json << "{\n"
         << "  \"sweep\": {\n"
         << "    \"configs\": 6,\n"
         << "    \"workload\": \"" << kGoldenBenchmark << "\",\n"
         << "    \"jobs\": " << jobs << ",\n"
         << "    \"detected_cpus\": " << detected_cpus << ",\n"
         << "    \"mode\": \"" << sweep_mode << "\",\n"
         << "    \"serial_seconds\": " << sweep_serial << ",\n"
         << "    \"parallel_seconds\": " << sweep_jobs << ",\n"
         << "    \"speedup\": " << sweep_speedup << "\n"
         << "  },\n"
         << "  \"self_profile\": " << prof.json << "\n"
         << "}";
    std::cout << "\n--- bench json ---\n" << json.str()
              << "\n--- end bench json ---\n";
    return 0;
}
