/**
 * @file
 * Shared experiment harness used by the paper driver: scales read
 * quanta from the environment (HETSIM_READS / HETSIM_WORKLOADS), runs
 * (configuration, workload) pairs, memoises results — including the
 * single-core IPC_alone runs the weighted-throughput metric needs — and
 * computes paper-style normalised numbers.
 *
 * Independent runs can execute concurrently on a thread pool
 * (HETSIM_JOBS workers): callers enumerate the sweep up front with
 * prefetch() / prefetchThroughput(), then the usual accessors are cache
 * hits.  Every run's mutable state (RNG, stats, protocol-check state)
 * is confined to its own System; armed runs share only the violation
 * log, locked when a violation is recorded.  Results are committed to
 * the memo cache — and JSON exports written — strictly in submission
 * order, so a parallel sweep is bit-identical to a serial one.  The
 * lifecycle tracer is process-wide, so a runner built while it records
 * takes one worker.
 */

#ifndef HETSIM_SIM_EXPERIMENTS_HH
#define HETSIM_SIM_EXPERIMENTS_HH

#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "sim/metrics.hh"
#include "sim/simulator.hh"
#include "sim/system_config.hh"

namespace hetsim::sim
{

/** Read-quantum scaling, overridable via HETSIM_READS / HETSIM_WARMUP. */
struct ExperimentScale
{
    std::uint64_t measureReads = 4000;
    std::uint64_t warmupReads = 4000;

    static ExperimentScale fromEnv();

    /** RunConfig for a run with @p active_cores cores (alone runs use a
     *  proportionally smaller quantum so suite sweeps stay fast). */
    RunConfig runConfig(unsigned active_cores, unsigned total_cores) const;
};

/**
 * Profile a workload on the DDR3 baseline for one @p rc window and
 * return the hot-page set for MemConfig::PagePlacement.  Two
 * constraints apply, as in Section 7.1: the 0.5 GB RLDRAM3 capacity
 * (131072 4 KB pages) and the paper's placement rule of the top 7.6 %
 * of accessed pages (0.5 GB / 6.5 GB footprint); the binding one wins.
 * With this study's scaled-down footprints the fraction usually binds —
 * placing *everything* fast would just bottleneck the single RLDRAM
 * channel.
 */
std::unordered_set<std::uint64_t>
profileHotPages(const std::string &bench, const RunConfig &rc,
                double hot_fraction = 0.076,
                std::size_t capacity_pages = (512ULL << 20) >> kPageShift);

/**
 * Filesystem-safe name for a memoisation key: illegal bytes become '_'
 * and a short hash of the *raw* key is appended, so keys that differ
 * only in flattened punctuation still map to distinct filenames.
 */
std::string sanitizedRunKey(const std::string &key);

/** One simulation in a sweep: configuration, workload, core count. */
struct RunSpec
{
    SystemParams params;
    std::string bench;
    /** Cores running the workload; 0 means params.cores (shared run). */
    unsigned activeCores = 0;
};

/**
 * Test hook: invoked at the start of every simulation run (pool worker
 * or serial); may throw to exercise the sweep failure path.  Pass
 * nullptr to clear.  Not thread-safe against concurrent prefetch().
 */
void setRunProbeForTest(std::function<void(const RunSpec &)> probe);

class ExperimentRunner
{
  public:
    /**
     * @param jobs worker threads for prefetch(); 0 reads HETSIM_JOBS
     *        from the environment (default: hardware concurrency).
     *        Forced to 1 while the lifecycle tracer is enabled.
     */
    explicit ExperimentRunner(unsigned jobs = 0);

    const ExperimentScale &scale() const { return scale_; }

    unsigned jobs() const { return jobs_; }

    /** Benchmarks to sweep (env subset or the full suite). */
    const std::vector<std::string> &workloads() const { return workloads_; }

    /** Convenience constructor for a config's SystemParams. */
    static SystemParams paramsFor(MemConfig mem, bool prefetcher = true);

    /**
     * Run every not-yet-memoised spec on the thread pool and commit the
     * results.  Duplicate specs (and specs already cached) run once.
     * Afterwards sharedRun()/aloneRun() for those specs are cache hits.
     * Every spec's params pass validate() before the first run starts.
     * A run whose worker throws is warned about and left unmemoised:
     * its accessor runs it again on the calling thread and propagates
     * any error.
     */
    void prefetch(const std::vector<RunSpec> &specs);

    /** Enumerate and prefetch everything normalizedThroughput() needs
     *  for @p configs vs @p baseline across all workloads(): the
     *  baseline alone run plus shared runs of baseline and configs. */
    void prefetchThroughput(const std::vector<SystemParams> &configs,
                            const SystemParams &baseline);

    /** Enumerate and prefetch shared runs of @p configs across all
     *  workloads(). */
    void prefetchShared(const std::vector<SystemParams> &configs);

    /** 8-core shared run (memoised). */
    const RunResult &sharedRun(const SystemParams &params,
                               const std::string &bench);

    /** Single-core IPC_alone run (memoised). */
    const RunResult &aloneRun(const SystemParams &params,
                              const std::string &bench);

    /** Paper metric: Σ IPC_shared/IPC_alone for one workload. */
    double weightedThroughput(const SystemParams &params,
                              const std::string &bench);

    /** Weighted throughput of @p params normalised to @p baseline. */
    double normalizedThroughput(const SystemParams &params,
                                const SystemParams &baseline,
                                const std::string &bench);

    /** profileHotPages (below) at this runner's read quantum. */
    std::unordered_set<std::uint64_t>
    profileHotPages(const std::string &bench,
                    double hot_fraction = 0.076,
                    std::size_t capacity_pages = (512ULL << 20) >>
                                                 kPageShift);

  private:
    /** Memo key for one (config, workload, core-count) run. */
    std::string keyFor(const SystemParams &params, const std::string &bench,
                       unsigned active_cores) const;

    const RunResult &getOrRun(const SystemParams &params,
                              const std::string &bench,
                              unsigned active_cores);

    ExperimentScale scale_;
    unsigned jobs_;
    std::vector<std::string> workloads_;
    /** Memoised results; node-stable, so returned references survive
     *  later inserts.  Guarded by cacheMutex_. */
    std::map<std::string, RunResult> cache_;
    std::mutex cacheMutex_;
};

} // namespace hetsim::sim

#endif // HETSIM_SIM_EXPERIMENTS_HH
