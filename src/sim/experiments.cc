#include "sim/experiments.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>

#include "common/env.hh"
#include "common/log.hh"
#include "common/thread_pool.hh"
#include "common/trace.hh"
#include "sim/report.hh"
#include "workloads/suite.hh"

namespace hetsim::sim
{

namespace
{
std::function<void(const RunSpec &)> g_runProbe;
} // namespace

void
setRunProbeForTest(std::function<void(const RunSpec &)> probe)
{
    g_runProbe = std::move(probe);
}

std::string
sanitizedRunKey(const std::string &key)
{
    std::uint64_t hash = 1469598103934665603ULL; // FNV-1a 64 offset basis
    for (char c : key) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ULL; // FNV-1a 64 prime
    }
    std::string out;
    out.reserve(key.size() + 9);
    for (char c : key) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '-' || c == '.';
        out.push_back(ok ? c : '_');
    }
    char suffix[16];
    std::snprintf(suffix, sizeof(suffix), "-%08x",
                  static_cast<unsigned>(hash & 0xffffffffu));
    out += suffix;
    return out;
}

namespace
{

/** JSON export directory (HETSIM_JSON_DIR), or nullptr when disabled. */
const char *
jsonExportDir()
{
    const char *dir = std::getenv("HETSIM_JSON_DIR");
    return (dir && *dir) ? dir : nullptr;
}

void
writeJsonExport(const std::string &json, const std::string &key)
{
    const char *dir = jsonExportDir();
    if (!dir)
        return;
    const std::string path =
        std::string(dir) + "/" + sanitizedRunKey(key) + ".json";
    std::ofstream out(path);
    if (!out) {
        warn("json export: cannot write '", path, "'");
        return;
    }
    out << json << "\n";
}

/** The simulation itself plus everything that must read the System
 *  while it is alive.  Runs on pool workers: all mutable state lives in
 *  the local System. */
struct RunOutcome
{
    RunResult result;
    std::string json; // rendered report, empty when export is off
};

RunOutcome
runOne(const ExperimentScale &scale, const RunSpec &spec,
       unsigned active_cores, bool want_json)
{
    if (g_runProbe)
        g_runProbe(spec);
    const auto &profile = workloads::suite::byName(spec.bench);
    System system(spec.params, profile, active_cores);
    const RunConfig rc = scale.runConfig(active_cores, spec.params.cores);
    RunOutcome out;
    out.result = runSimulation(system, rc);
    if (want_json)
        out.json = renderReportJson(system, out.result);
    return out;
}

} // namespace

ExperimentScale
ExperimentScale::fromEnv()
{
    ExperimentScale s;
    if (const std::uint64_t reads = envU64("HETSIM_READS", 0, 1)) {
        s.measureReads = reads;
        s.warmupReads = std::max<std::uint64_t>(reads, 1000);
    }
    s.warmupReads = envU64("HETSIM_WARMUP", s.warmupReads, 1);
    return s;
}

RunConfig
ExperimentScale::runConfig(unsigned active_cores,
                           unsigned total_cores) const
{
    RunConfig rc;
    // Alone runs accumulate reads ~8x slower; shrink their quantum so a
    // full sweep stays tractable while keeping enough samples.
    const double share = static_cast<double>(active_cores) /
                         static_cast<double>(total_cores);
    rc.measureReads = std::max<std::uint64_t>(
        static_cast<std::uint64_t>(measureReads * std::max(share, 0.25)),
        2000);
    rc.warmupReads = std::max<std::uint64_t>(
        static_cast<std::uint64_t>(warmupReads * std::max(share, 0.25)),
        400);
    // Low-MPKI programs (ep, sjeng, ...) never reach the read quantum;
    // their IPC converges within a few million ticks, so cap the windows
    // to keep full-suite sweeps fast.
    rc.maxWarmupTicks = 3'000'000;
    rc.maxMeasureTicks = 12'000'000;
    return rc;
}

ExperimentRunner::ExperimentRunner(unsigned jobs)
    : scale_(ExperimentScale::fromEnv()),
      jobs_(jobs ? jobs : ThreadPool::jobsFromEnv())
{
    // A trace is one ordered stream, recorded without a lock: a traced
    // sweep runs its simulations one at a time.
    if (trace::Tracer::instance().enabled())
        jobs_ = 1;
    if (const char *env = std::getenv("HETSIM_WORKLOADS")) {
        std::stringstream ss(env);
        std::string tok;
        while (std::getline(ss, tok, ',')) {
            if (!tok.empty()) {
                workloads_.push_back(
                    workloads::suite::byName(tok).name); // validates
            }
        }
    }
    if (workloads_.empty())
        workloads_ = workloads::suite::names();
    if (const char *dir = jsonExportDir()) {
        std::error_code ec;
        if (!std::filesystem::is_directory(dir, ec))
            fatal("HETSIM_JSON_DIR: '", dir,
                  "' is not an existing directory");
    }
}

SystemParams
ExperimentRunner::paramsFor(MemConfig mem, bool prefetcher)
{
    SystemParams p;
    p.mem = mem;
    p.prefetcherEnabled = prefetcher;
    return p;
}

std::string
ExperimentRunner::keyFor(const SystemParams &params,
                         const std::string &bench,
                         unsigned active_cores) const
{
    std::ostringstream key;
    key << params.cacheKey() << "|" << bench << "|a" << active_cores << "|r"
        << scale_.measureReads;
    return key.str();
}

void
ExperimentRunner::prefetch(const std::vector<RunSpec> &specs)
{
    // Enumerate the missing runs, deduplicating both against the memo
    // cache and among the requested specs.
    struct Pending
    {
        RunSpec spec;
        unsigned activeCores;
        std::string key;
        std::future<void> done;
        RunOutcome outcome;
        bool failed = false; ///< the worker threw
    };
    std::vector<Pending> todo;
    {
        std::unordered_set<std::string> seen;
        std::lock_guard<std::mutex> lock(cacheMutex_);
        for (const auto &spec : specs) {
            // Bad parameters stop the sweep here, before any run starts.
            validate(spec.params);
            const unsigned active =
                spec.activeCores ? spec.activeCores : spec.params.cores;
            std::string key = keyFor(spec.params, spec.bench, active);
            if (cache_.count(key) || !seen.insert(key).second)
                continue;
            Pending p;
            p.spec = spec;
            p.activeCores = active;
            p.key = std::move(key);
            todo.push_back(std::move(p));
        }
    }
    if (todo.empty())
        return;

    const bool want_json = jsonExportDir() != nullptr;
    {
        ThreadPool pool(jobs_);
        for (auto &p : todo) {
            Pending *slot = &p;
            p.done = pool.submit([this, slot, want_json] {
                slot->outcome = runOne(scale_, slot->spec,
                                       slot->activeCores, want_json);
            });
        }
        // Join in submission order; a worker exception surfaces here on
        // the corresponding future.  It must not abort the sweep — the
        // other runs' results are already paid for — so the failed run
        // is left unmemoised and its accessor re-runs it.
        for (auto &p : todo) {
            std::string error;
            try {
                p.done.get();
                continue;
            } catch (const std::exception &e) {
                error = e.what();
            } catch (...) {
                error = "unknown exception";
            }
            p.failed = true;
            warn("sweep: run '", p.key, "' failed and is left to its "
                 "accessor: ", error);
        }
    }

    // Commit results — memo entries and JSON exports — in submission
    // order, so a parallel sweep is observationally identical to a
    // serial one regardless of worker interleaving.
    for (auto &p : todo) {
        if (p.failed)
            continue;
        {
            std::lock_guard<std::mutex> lock(cacheMutex_);
            cache_.emplace(p.key, std::move(p.outcome.result));
        }
        if (want_json)
            writeJsonExport(p.outcome.json, p.key);
    }
}

void
ExperimentRunner::prefetchThroughput(
    const std::vector<SystemParams> &configs, const SystemParams &baseline)
{
    std::vector<RunSpec> specs;
    for (const auto &wl : workloads_) {
        specs.push_back(RunSpec{baseline, wl, 1}); // IPC_alone weights
        specs.push_back(RunSpec{baseline, wl, 0});
        for (const auto &cfg : configs)
            specs.push_back(RunSpec{cfg, wl, 0});
    }
    prefetch(specs);
}

void
ExperimentRunner::prefetchShared(const std::vector<SystemParams> &configs)
{
    std::vector<RunSpec> specs;
    for (const auto &wl : workloads_)
        for (const auto &cfg : configs)
            specs.push_back(RunSpec{cfg, wl, 0});
    prefetch(specs);
}

const RunResult &
ExperimentRunner::getOrRun(const SystemParams &params,
                           const std::string &bench, unsigned active_cores)
{
    const std::string key = keyFor(params, bench, active_cores);
    {
        std::lock_guard<std::mutex> lock(cacheMutex_);
        const auto it = cache_.find(key);
        if (it != cache_.end())
            return it->second;
    }

    RunOutcome out =
        runOne(scale_, RunSpec{params, bench, active_cores}, active_cores,
               jsonExportDir() != nullptr);
    if (!out.json.empty())
        writeJsonExport(out.json, key);
    std::lock_guard<std::mutex> lock(cacheMutex_);
    return cache_.emplace(key, std::move(out.result)).first->second;
}

const RunResult &
ExperimentRunner::sharedRun(const SystemParams &params,
                            const std::string &bench)
{
    return getOrRun(params, bench, params.cores);
}

const RunResult &
ExperimentRunner::aloneRun(const SystemParams &params,
                           const std::string &bench)
{
    return getOrRun(params, bench, 1);
}

double
ExperimentRunner::weightedThroughput(const SystemParams &params,
                                     const std::string &bench)
{
    const RunResult &shared = sharedRun(params, bench);
    const RunResult &alone = aloneRun(params, bench);
    sim_assert(!alone.perCoreIpc.empty(), "alone run produced no cores");
    return sim::weightedThroughput(shared.perCoreIpc,
                                   alone.perCoreIpc.front());
}

double
ExperimentRunner::normalizedThroughput(const SystemParams &params,
                                       const SystemParams &baseline,
                                       const std::string &bench)
{
    // Weighted throughput Σ IPC_shared/IPC_alone with IPC_alone pinned
    // to the *baseline* memory system for both sides.  Using per-config
    // alone IPCs would turn the metric into a scaling measure that can
    // invert the paper's orderings (a slower memory makes the alone run
    // worse too); with baseline weights it reduces to relative system
    // throughput, which is what Fig. 6 reports.
    const RunResult &alone = aloneRun(baseline, bench);
    sim_assert(!alone.perCoreIpc.empty(), "alone run produced no cores");
    const double alone_ipc = alone.perCoreIpc.front();

    const double wt = sim::weightedThroughput(
        sharedRun(params, bench).perCoreIpc, alone_ipc);
    const double wt_base = sim::weightedThroughput(
        sharedRun(baseline, bench).perCoreIpc, alone_ipc);
    sim_assert(wt_base > 0, "baseline throughput must be positive");
    return wt / wt_base;
}

std::unordered_set<std::uint64_t>
ExperimentRunner::profileHotPages(const std::string &bench,
                                  double hot_fraction,
                                  std::size_t capacity_pages)
{
    const unsigned cores = paramsFor(MemConfig::BaselineDDR3).cores;
    return sim::profileHotPages(bench, scale_.runConfig(cores, cores),
                                hot_fraction, capacity_pages);
}

std::unordered_set<std::uint64_t>
profileHotPages(const std::string &bench, const RunConfig &rc,
                double hot_fraction, std::size_t capacity_pages)
{
    SystemParams profiling =
        ExperimentRunner::paramsFor(MemConfig::BaselineDDR3);
    profiling.trackPageCounts = true;

    const auto &profile = workloads::suite::byName(bench);
    System system(profiling, profile, profiling.cores);
    (void)runSimulation(system, rc);

    const auto &counts = system.hierarchy().pageCounts();
    // The capacity test uses the program's *declared* footprint (its
    // largest cold working-set window times the core count), not the
    // pages touched in a short profiling run: small-footprint programs
    // fit the 0.5 GB DIMM outright (the paper's best case, +11.2%),
    // larger ones place only the profiled hot fraction.
    std::uint64_t footprint_bytes = 0;
    for (const auto &spec : profile.patterns) {
        footprint_bytes =
            std::max<std::uint64_t>(footprint_bytes, spec.windowBytes);
    }
    footprint_bytes *= profiling.cores;
    std::size_t budget;
    if ((footprint_bytes >> kPageShift) <= capacity_pages) {
        budget = counts.size();
    } else {
        budget = static_cast<std::size_t>(std::max<double>(
            1.0, hot_fraction * static_cast<double>(counts.size())));
    }
    return cwf::selectHotPages(counts, std::min(budget, capacity_pages));
}

} // namespace hetsim::sim
