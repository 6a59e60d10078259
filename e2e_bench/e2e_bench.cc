/**
 * @file
 * End-to-end host-cost benchmark: named slices of the paper's Fig. 6
 * sweep at the default quantum, run from one single-threaded process.
 * README.md beside this file explains the workloads and every metric.
 *
 * Usage:
 *   e2e_bench --workload <name[,name...]|all> [--seed 12345] [--seconds 10]
 *             [--trace 0|1] [--programs p[,p...]] [--configs c[,c...]]
 *             [--smoke]
 *
 * --trace 0 repeats the workload's runs until --seconds is spent (at
 * least twice) and reports each run's median repetition, its CPU time
 * scaled by a host-speed probe taken around it; --trace 1 makes one pass,
 * however long --seconds is, that also steps each run on the
 * hand-assembled stack, untimed and traced, and reports the per-layer
 * split.  --programs/--configs narrow a
 * workload to some of its runs; --smoke shrinks the quantum to a few
 * hundred reads.  Every line but the last is for people; the last is
 * one JSON object with the metrics of the chosen mode.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <signal.h>
#include <sys/time.h>

#include "common/log.hh"
#include "harness.hh"
#include "sim/experiments.hh"
#include "sim/golden.hh"
#include "sim/simulator.hh"
#include "sim/system.hh"
#include "workloads/suite.hh"

using namespace hetsim;
using namespace hetsim::sim;
using e2e::Layer;

namespace
{

constexpr unsigned kCores = 8; // SystemParams default, Table 1

struct RunSpec
{
    std::string program;
    MemConfig mem;
    unsigned activeCores;
};

std::string
runName(const RunSpec &spec)
{
    return spec.program + "/" + toString(spec.mem) + "/" +
           (spec.activeCores == 1 ? "alone" : "shared");
}

struct Workload
{
    std::string name;
    std::vector<RunSpec> runs;
};

/** Fig. 6's five runs of one program: the DDR3 IPC_alone weight plus
 *  shared runs under DDR3 and the three CWF pairings. */
void
addFig6Runs(std::vector<RunSpec> &runs, const std::string &program)
{
    runs.push_back({program, MemConfig::BaselineDDR3, 1});
    for (MemConfig mem : {MemConfig::BaselineDDR3, MemConfig::CwfRD,
                          MemConfig::CwfRL, MemConfig::CwfDL})
        runs.push_back({program, mem, kCores});
}

/** The benchmark's workloads; README.md says why each was chosen. */
std::vector<Workload>
workloadTable()
{
    Workload cwf{"cwf_reads", {}};
    for (const char *p : {"mcf", "omnetpp", "libquantum", "leslie3d"})
        addFig6Runs(cwf.runs, p);

    Workload wb{"writeback_stream", {}};
    for (const char *p : {"lbm", "stream", "milc"})
        addFig6Runs(wb.runs, p);

    Workload low{"low_intensity",
                 {{"bzip2", MemConfig::BaselineDDR3, 1},
                  {"bzip2", MemConfig::BaselineDDR3, kCores},
                  {"bzip2", MemConfig::CwfRL, kCores},
                  {"ep", MemConfig::BaselineDDR3, 1}}};
    return {cwf, wb, low};
}

struct Options
{
    std::vector<std::string> workloads;
    std::vector<std::string> programs; ///< empty: every program
    std::vector<std::string> configs;  ///< empty: every config
    std::uint64_t seed = 12345;
    double seconds = 10;
    bool trace = false;
    bool smoke = false;
};

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string tok;
    while (std::getline(ss, tok, ','))
        if (!tok.empty())
            out.push_back(tok);
    return out;
}

std::string
joinList(const std::vector<std::string> &v)
{
    std::string out;
    for (const auto &s : v)
        out += (out.empty() ? "" : ", ") + s;
    return out;
}

bool
contains(const std::vector<std::string> &v, const std::string &s)
{
    return std::find(v.begin(), v.end(), s) != v.end();
}

/** Validation failure: reported before any run starts. */
struct UsageError
{
    std::string message;
};

/** Every name in @p given must be one of @p valid. */
void
requireKnown(const char *what, const std::vector<std::string> &given,
             const std::vector<std::string> &valid)
{
    for (const auto &name : given) {
        if (!contains(valid, name))
            throw UsageError{"unknown " + std::string(what) + " '" + name +
                             "'; valid: " + joinList(valid)};
    }
}

std::vector<std::string>
configNames()
{
    std::vector<std::string> out;
    for (MemConfig c : allMemConfigs())
        out.push_back(toString(c));
    return out;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string value;
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            value = arg.substr(eq + 1);
            arg = arg.substr(0, eq);
        } else if (arg != "--smoke") {
            if (i + 1 >= argc)
                throw UsageError{"missing value for " + arg};
            value = argv[++i];
        }
        try {
            std::size_t used = 0;
            if (arg == "--workload") {
                opt.workloads = splitList(value);
            } else if (arg == "--programs") {
                opt.programs = splitList(value);
            } else if (arg == "--configs") {
                opt.configs = splitList(value);
            } else if (arg == "--seed") {
                opt.seed = std::stoull(value, &used);
            } else if (arg == "--seconds") {
                opt.seconds = std::stod(value, &used);
                if (!(opt.seconds > 0))
                    throw UsageError{"--seconds must be positive"};
            } else if (arg == "--trace") {
                if (value != "0" && value != "1")
                    throw UsageError{"--trace takes 0 or 1"};
                opt.trace = value == "1";
            } else if (arg == "--smoke") {
                opt.smoke = true;
            } else {
                throw UsageError{"unknown option " + arg};
            }
            if (used != 0 && used != value.size())
                throw UsageError{"bad number '" + value + "' for " + arg};
        } catch (const std::logic_error &) {
            throw UsageError{"bad number '" + value + "' for " + arg};
        }
    }
    if (opt.workloads.empty())
        throw UsageError{"--workload is required"};
    return opt;
}

/** Apply the options to the table; every name is checked first. */
std::vector<Workload>
selectWorkloads(const Options &opt)
{
    std::vector<Workload> table = workloadTable();
    std::vector<std::string> names;
    for (const auto &w : table)
        names.push_back(w.name);
    const std::vector<std::string> programs = workloads::suite::names();
    // The table itself is checked too, so a renamed suite profile fails
    // here instead of as a fatal() in the middle of the runs.
    for (const auto &w : table)
        for (const auto &r : w.runs)
            requireKnown("program", {r.program}, programs);
    if (opt.workloads != std::vector<std::string>{"all"})
        requireKnown("workload", opt.workloads, names);
    requireKnown("program", opt.programs, programs);
    requireKnown("config", opt.configs, configNames());

    std::vector<Workload> out;
    for (auto &w : table) {
        if (opt.workloads != std::vector<std::string>{"all"} &&
            !contains(opt.workloads, w.name))
            continue;
        std::erase_if(w.runs, [&](const RunSpec &r) {
            return (!opt.programs.empty() &&
                    !contains(opt.programs, r.program)) ||
                   (!opt.configs.empty() &&
                    !contains(opt.configs, toString(r.mem)));
        });
        if (w.runs.empty())
            throw UsageError{"workload '" + w.name +
                             "' has no run left after --programs/--configs"};
        out.push_back(std::move(w));
    }
    return out;
}

/** The figure sweeps' RunConfig (ExperimentScale defaults, not the
 *  HETSIM_READS environment), or a tiny one for --smoke. */
RunConfig
runConfigFor(const RunSpec &spec, bool smoke)
{
    RunConfig rc = ExperimentScale{}.runConfig(spec.activeCores, kCores);
    if (smoke) {
        rc.measureReads = 200;
        rc.warmupReads = 100;
        rc.maxWarmupTicks = 50'000;
        rc.maxMeasureTicks = 200'000;
    }
    return rc;
}

SystemParams
paramsFor(const RunSpec &spec, std::uint64_t seed)
{
    SystemParams p = ExperimentRunner::paramsFor(spec.mem);
    p.seed = seed;
    return p;
}

/**
 * Host-speed probe.  Co-tenants on a shared host slow this single-threaded
 * work by up to 2x for minutes at a time, through shared caches, memory
 * and cores.  A fixed probe kernel slows with it, so each run's CPU time
 * is divided by the mean probe time over the run and rescaled to the
 * reference host.  Over a 4-minute trace on the tuning VM, 12 s medians of
 * raw run time moved by up to +45%; the same medians of the scaled time
 * stayed within 10%.
 *
 * The kernel is random read-modify-writes over a 4 MB table, about the
 * size of the simulator's own hot data and twice a core's L2.  A sweep
 * over the table, untimed, comes first, so the timed part starts from the
 * same cache state whatever the run before it left there; otherwise a run
 * with a larger footprint would slow the probe and hide its own cost.  It
 * allocates nothing, so it can
 * run from a SIGPROF handler: one probe after every kProbeEveryUs of
 * process CPU samples the host speed inside long runs, plus one probe
 * between runs.  Probe time is left out of the runs' CPU time.
 *
 * Times here read the thread's CPU clock: while an ITIMER_PROF timer is
 * armed, Linux serves the process clock at scheduler-tick resolution.  The
 * benchmark is single-threaded, so the two clocks count the same time.
 */
constexpr std::size_t kProbeSlots = std::size_t{1} << 18; // 16 B each
constexpr unsigned kProbeOps = 40'000;
constexpr long kProbeEveryUs = 20'000;

/** CPU seconds one probe takes on the reference host: the 4-vCPU VM the
 *  benchmark was tuned on, when its co-tenants were quiet. */
constexpr double kProbeRefSeconds = 0.0005;

struct ProbeSlot
{
    std::uint64_t key, value;
};
ProbeSlot probeTable[kProbeSlots];
volatile std::uint64_t probeSink;

/** Every probe so far; written by the handler, so read and written
 *  elsewhere only under a ProbeBlock. */
volatile double probeCpu = 0;
volatile std::uint64_t probeCount = 0;

/** CPU seconds of this thread; clock_gettime is async-signal-safe. */
double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** Holds SIGPROF back while alive. */
class ProbeBlock
{
  public:
    ProbeBlock()
    {
        sigset_t prof;
        sigemptyset(&prof);
        sigaddset(&prof, SIGPROF);
        sigprocmask(SIG_BLOCK, &prof, &old_);
    }
    ~ProbeBlock() { sigprocmask(SIG_SETMASK, &old_, nullptr); }
    ProbeBlock(const ProbeBlock &) = delete;
    ProbeBlock &operator=(const ProbeBlock &) = delete;

  private:
    sigset_t old_;
};

/** One probe; outside the handler, call it under a ProbeBlock. */
void
probe()
{
    const double t0 = threadCpuSeconds();
    std::uint64_t x = 12345, acc = 0;
    for (unsigned i = 0; i < kProbeOps; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        ProbeSlot &slot = probeTable[(x >> 30) & (kProbeSlots - 1)];
        const std::uint64_t key = x >> 63;
        if (slot.key == key) {
            slot.value += i;
        } else {
            acc += slot.value;
            slot = {key, x};
        }
    }
    probeSink = acc;
    probeCpu = probeCpu + (threadCpuSeconds() - t0);
    probeCount = probeCount + 1;
}

void
onProbeTimer(int)
{
    probe();
}

struct ProbeTotals
{
    double cpu = 0;          ///< process CPU seconds, probes excluded
    double probeCpu = 0;     ///< CPU seconds of every probe so far
    std::uint64_t count = 0; ///< probes so far
};

/** Call under a ProbeBlock. */
ProbeTotals
probeTotals()
{
    ProbeTotals t{0, probeCpu, probeCount};
    t.cpu = threadCpuSeconds() - t.probeCpu;
    return t;
}

/** Process CPU seconds with probe time left out. */
double
netCpuSeconds()
{
    const ProbeBlock block;
    return probeTotals().cpu;
}

/** Probes run every kProbeEveryUs of process CPU while this is alive. */
class ProbeTimer
{
  public:
    ProbeTimer()
    {
        struct sigaction sa{};
        sa.sa_handler = onProbeTimer;
        sa.sa_flags = SA_RESTART;
        sigemptyset(&sa.sa_mask);
        sigaction(SIGPROF, &sa, nullptr);
        arm(kProbeEveryUs);
    }
    ~ProbeTimer() { arm(0); }
    ProbeTimer(const ProbeTimer &) = delete;
    ProbeTimer &operator=(const ProbeTimer &) = delete;

  private:
    static void
    arm(long us)
    {
        itimerval it{};
        it.it_interval.tv_usec = us;
        it.it_value.tv_usec = us;
        setitimer(ITIMER_PROF, &it, nullptr);
    }
};

/** One untraced run through sim::System + runSimulation. */
struct SystemRun
{
    double setupCpu = 0; ///< System construction
    double runCpu = 0;   ///< runSimulation
    e2e::SimCounters counters;
    std::string digest;
    std::uint64_t retired = 0;
    std::uint64_t demandReads = 0;
    std::uint64_t quantum = 0;
    bool capped = false;
    std::string problem; ///< non-empty: a sanity check failed
};

SystemRun
runSystem(const RunSpec &spec, const RunConfig &rc, std::uint64_t seed)
{
    SystemRun out;
    const double t0 = netCpuSeconds();
    const SystemParams params = paramsFor(spec, seed);
    System system(params, workloads::suite::byName(spec.program),
                  spec.activeCores);
    const double t1 = netCpuSeconds();
    const RunResult result = runSimulation(system, rc);
    const double t2 = netCpuSeconds();
    out.setupCpu = t1 - t0;
    out.runCpu = t2 - t1;
    out.counters = e2e::countersOf(system, result);
    out.digest = renderGoldenDigest(system, result);
    for (std::uint64_t r : out.counters.retired)
        out.retired += r;
    out.demandReads = result.demandReads;
    out.quantum = rc.measureReads;
    out.capped = result.demandReads < rc.measureReads;

    if (result.perCoreIpc.size() != spec.activeCores)
        out.problem = "per-core IPC count differs from active cores";
    else if (!std::isfinite(result.aggIpc) || result.aggIpc <= 0)
        out.problem = "aggregate IPC is not a positive number";
    else if (out.capped && result.windowTicks < rc.maxMeasureTicks)
        out.problem = "short of the read quantum before the tick cap";
    return out;
}

std::uint64_t
fnv1a(const std::string &s, std::uint64_t h = 1469598103934665603ULL)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0.0;
}

/** Peak resident memory of this process image.  getrusage's ru_maxrss
 *  would also count the parent's image from before exec (run.py's
 *  Python), so read VmHWM instead. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    }
    return 0;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    /** How repeated samples were reduced ("median"); empty for a
     *  single reading. */
    std::string stat = {};
    std::size_t reps = 0;
};

/** Outcome of one workload: both metric sets and the run accounting. */
struct WorkloadResult
{
    std::vector<Metric> endToEnd;
    std::vector<Metric> perLayer;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

class Bench
{
  public:
    Bench(const Workload &w, const Options &opt)
        : w_(w), opt_(opt), firstRuns_(w.runs.size())
    {
    }

    WorkloadResult
    run()
    {
        {
            const ProbeBlock block;
            probe(); // the first probe pays for page faults
        }
        startInterval();
        return opt_.trace ? tracedPass() : timedReps();
    }

  private:
    /** Start a measured interval with a probe. */
    void
    startInterval()
    {
        const ProbeBlock block;
        mark_ = probeTotals();
        probe();
    }

    /** @p cpu seconds, measured since startInterval() or the previous
     *  scaled(), rescaled to the reference host by the mean of the probes
     *  from the one that began the interval to a fresh one that ends it
     *  and begins the next. */
    double
    scaled(double cpu)
    {
        const ProbeBlock block;
        const ProbeTotals begin = mark_;
        mark_ = probeTotals();
        probe();
        const ProbeTotals end = probeTotals();
        const double mean = (end.probeCpu - begin.probeCpu) /
                            static_cast<double>(end.count - begin.count);
        probes_.push_back(mean);
        return cpu * kProbeRefSeconds / mean;
    }

    void
    fail(const std::string &run, const std::string &why)
    {
        res_.failed += 1;
        std::cout << "fail " << w_.name << ' ' << run << ": " << why
                  << '\n';
    }

    /** Run one System, count it, check it against repetition 0; returns
     *  false when it failed. */
    bool
    systemRun(std::size_t i, SystemRun &out)
    {
        const RunSpec &spec = w_.runs[i];
        res_.attempted += 1;
        try {
            out = runSystem(spec, runConfigFor(spec, opt_.smoke),
                            opt_.seed);
        } catch (const SimError &e) {
            fail(runName(spec), e.message);
            return false;
        } catch (const std::exception &e) {
            fail(runName(spec), e.what());
            return false;
        }
        if (!out.problem.empty()) {
            fail(runName(spec), out.problem);
            return false;
        }
        if (!firstRuns_[i]) {
            firstRuns_[i] = out;
            std::cout << "run " << w_.name << ' ' << runName(spec)
                      << " reads=" << out.demandReads << '/'
                      << out.quantum << " ticks=" << out.counters.endTick
                      << " retired=" << out.retired
                      << " capped=" << out.capped << " cpu_s="
                      << out.setupCpu + out.runCpu << '\n';
        } else if (out.digest != firstRuns_[i]->digest) {
            fail(runName(spec), "digest changed between repetitions");
            return false;
        }
        return true;
    }

    /** Capped runs, the digest line and the run-accounting metrics. */
    void
    summarise()
    {
        std::uint64_t capped = 0, runs = 0;
        std::uint64_t digest = fnv1a("");
        for (std::size_t i = 0; i < firstRuns_.size(); ++i) {
            if (!firstRuns_[i])
                continue;
            const SystemRun &r = *firstRuns_[i];
            runs += 1;
            digest = fnv1a(r.digest, digest);
            if (r.capped) {
                capped += 1;
                std::cout << "capped " << w_.name << ' '
                          << runName(w_.runs[i]) << " reads="
                          << r.demandReads << '/' << r.quantum << '\n';
            }
        }
        char hex[17];
        std::snprintf(hex, sizeof hex, "%016llx",
                      static_cast<unsigned long long>(digest));
        std::cout << "sim_digest " << w_.name << ' ' << hex << " runs="
                  << runs << " seed=" << opt_.seed << '\n';
        counts_ = {{"capped_runs", static_cast<double>(capped), "count"},
                   {"failed_runs", static_cast<double>(res_.failed),
                    "count"}};
    }

    /** Samples[run][repetition], CPU seconds. */
    using Samples = std::vector<std::vector<double>>;

    /** Sum over the runs of each run's median. */
    static double
    sumOfMedians(const Samples &samples)
    {
        double sum = 0;
        for (const auto &run : samples)
            sum += run.empty() ? 0.0 : median(run);
        return sum;
    }

    void
    endToEnd(const Samples &cpu, const Samples &raw_cpu, const Samples &setup,
             std::size_t reps, std::size_t setup_reps)
    {
        std::uint64_t retired = 0;
        for (const auto &r : firstRuns_)
            retired += r ? r->retired : 0;
        const double cpu_s = sumOfMedians(cpu);
        std::printf("timing %s cpu_s median=%.6f raw_median=%.6f "
                    "probe_ms=%.3f reps=%zu\n",
                    w_.name.c_str(), cpu_s, sumOfMedians(raw_cpu),
                    probes_.empty() ? 0.0 : 1e3 * median(probes_), reps);
        res_.endToEnd = {
            {"cpu_s", cpu_s, "s", "median", reps},
            {"sim_minst_per_cpu_s",
             ratio(static_cast<double>(retired) * 1e-6, cpu_s), "Minst/s",
             "median", reps},
            {"setup_s", sumOfMedians(setup), "s", "median", setup_reps},
            {"peak_rss_mb", peakRssMb(), "MB"},
        };
    }

    /** System construction CPU, kSetupReps scaled samples per run: one
     *  construction takes about a millisecond, so a single sample is
     *  mostly noise.  One probe brackets each sweep over the runs. */
    static constexpr std::size_t kSetupReps = 51;

    Samples
    setupSamples()
    {
        Samples samples(w_.runs.size());
        std::vector<double> sweep(w_.runs.size());
        for (std::size_t k = 0; k < kSetupReps; ++k) {
            double total = 0;
            for (std::size_t i = 0; i < w_.runs.size(); ++i) {
                const RunSpec &spec = w_.runs[i];
                const double t0 = netCpuSeconds();
                auto system = std::make_unique<System>(
                    paramsFor(spec, opt_.seed),
                    workloads::suite::byName(spec.program),
                    spec.activeCores);
                sweep[i] = netCpuSeconds() - t0;
                total += sweep[i];
            }
            const double scale = scaled(total) / total;
            for (std::size_t i = 0; i < w_.runs.size(); ++i)
                samples[i].push_back(sweep[i] * scale);
        }
        return samples;
    }

    /** --trace 0: whole-workload repetitions until the budget is spent. */
    WorkloadResult
    timedReps()
    {
        const ProbeTimer timer;
        const Samples setup = setupSamples();
        probes_.clear(); // probe_ms covers the runs only
        Samples cpu(w_.runs.size()), raw_cpu(w_.runs.size());
        std::vector<double> rep_sums;
        const auto wall0 = std::chrono::steady_clock::now();
        for (bool ok = true; ok;) {
            double sum = 0;
            for (std::size_t i = 0; i < w_.runs.size(); ++i) {
                SystemRun r;
                if (!systemRun(i, r)) {
                    startInterval();
                    ok = false;
                    continue;
                }
                const double run_cpu = r.setupCpu + r.runCpu;
                raw_cpu[i].push_back(run_cpu);
                cpu[i].push_back(scaled(run_cpu));
                sum += run_cpu;
            }
            rep_sums.push_back(sum);
            // Stop before a repetition that would overrun the budget, but
            // not before each run has two samples.
            const double elapsed = std::chrono::duration<double>(
                                       std::chrono::steady_clock::now() -
                                       wall0)
                                       .count();
            const double per_rep =
                elapsed / static_cast<double>(rep_sums.size());
            if (rep_sums.size() >= 2 && elapsed + per_rep > opt_.seconds)
                break;
        }
        std::cout << "reps " << w_.name << " cpu_s";
        for (double v : rep_sums)
            std::cout << ' ' << v;
        std::cout << '\n';
        summarise();
        endToEnd(cpu, raw_cpu, setup, rep_sums.size(), kSetupReps);
        res_.perLayer = counts_;
        return res_;
    }

    /** --trace 1: one pass; each run on System, then on the untimed and
     *  the traced hand-assembled stack, which must match it exactly. */
    WorkloadResult
    tracedPass()
    {
        e2e::LayerSplit sum;
        Samples system_cpu(w_.runs.size()), raw_cpu(w_.runs.size());
        Samples system_setup(w_.runs.size());
        double system_run_cpu = 0;
        double untimed_cpu = 0, traced_cpu = 0;
        double bus = 0, row = 0, queue = 0;
        std::size_t traced_runs = 0;
        for (std::size_t i = 0; i < w_.runs.size(); ++i) {
            const RunSpec &spec = w_.runs[i];
            SystemRun sys;
            double scale;
            bool ok;
            {
                const ProbeTimer timer;
                startInterval();
                ok = systemRun(i, sys);
                scale = scaled(1.0);
            }
            if (!ok)
                continue;
            raw_cpu[i].push_back(sys.setupCpu + sys.runCpu);
            system_cpu[i].push_back((sys.setupCpu + sys.runCpu) * scale);
            system_setup[i].push_back(sys.setupCpu * scale);
            system_run_cpu += sys.runCpu;

            const SystemParams params = paramsFor(spec, opt_.seed);
            const auto &profile = workloads::suite::byName(spec.program);
            const RunConfig rc = runConfigFor(spec, opt_.smoke);
            e2e::HarnessRun plain, traced;
            try {
                plain = e2e::runHarness(params, profile, spec.activeCores,
                                        rc, false);
                traced = e2e::runHarness(params, profile,
                                         spec.activeCores, rc, true);
            } catch (const SimError &e) {
                fail(runName(spec), e.message);
                continue;
            } catch (const std::exception &e) {
                fail(runName(spec), e.what());
                continue;
            }
            if (plain.counters != sys.counters) {
                fail(runName(spec), "untimed stack diverged from System");
                continue;
            }
            if (traced.counters != sys.counters) {
                fail(runName(spec), "traced stack diverged from System");
                continue;
            }
            untimed_cpu += plain.loopCpuSeconds;
            traced_cpu += traced.loopCpuSeconds;
            const e2e::LayerSplit &s = traced.split;
            const double gen_s = e2e::priceGenerator(profile, opt_.seed,
                                                     s.opsPerCore);
            for (std::size_t l = 0; l < e2e::kLayers; ++l)
                sum.selfSeconds[l] += s.selfSeconds[l];
            // Generator calls ran inside Core::tick spans.
            sum.selfSeconds[static_cast<std::size_t>(Layer::Workloads)] +=
                gen_s;
            sum.selfSeconds[static_cast<std::size_t>(Layer::Cpu)] -= gen_s;
            sum.ops += s.ops;
            sum.ticks += s.ticks;
            sum.coreTicks += s.coreTicks;
            sum.retired += s.retired;
            sum.dispatchStalls += s.dispatchStalls;
            sum.accesses += s.accesses;
            sum.demandMisses += s.demandMisses;
            sum.mshrJoins += s.mshrJoins;
            sum.mshrFullStalls += s.mshrFullStalls;
            sum.blockedAccesses += s.blockedAccesses;
            sum.prefetchIssued += s.prefetchIssued;
            sum.fillRequests += s.fillRequests;
            sum.writebackRequests += s.writebackRequests;
            sum.servedByFast += s.servedByFast;
            sum.earlyWakes += s.earlyWakes;
            bus += traced.counters.busUtilization;
            row += traced.counters.rowHitRate;
            queue += s.queueTicks;
            traced_runs += 1;
        }
        summarise();
        endToEnd(system_cpu, raw_cpu, system_setup, 1, 1);

        const auto self = [&](Layer l) {
            return sum.selfSeconds[static_cast<std::size_t>(l)];
        };
        const double n = static_cast<double>(traced_runs);
        const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
        res_.perLayer = {
            {"workloads.ops", d(sum.ops), "count"},
            {"workloads.ns_per_op", ratio(self(Layer::Workloads) * 1e9,
                                          d(sum.ops)), "ns"},
            {"workloads.self_s", self(Layer::Workloads), "s"},
            {"cpu.core_ticks", d(sum.coreTicks), "count"},
            {"cpu.ns_per_core_tick",
             ratio(self(Layer::Cpu) * 1e9, d(sum.coreTicks)), "ns"},
            {"cpu.self_s", self(Layer::Cpu), "s"},
            {"cpu.retired", d(sum.retired), "count"},
            {"cpu.dispatch_stalls", d(sum.dispatchStalls), "count"},
            {"cache.accesses", d(sum.accesses), "count"},
            {"cache.self_s", self(Layer::Cache), "s"},
            {"cache.demand_misses", d(sum.demandMisses), "count"},
            {"cache.mshr_joins", d(sum.mshrJoins), "count"},
            {"cache.mshr_full_stalls", d(sum.mshrFullStalls), "count"},
            {"cache.blocked_accesses", d(sum.blockedAccesses), "count"},
            {"cache.prefetch_issued", d(sum.prefetchIssued), "count"},
            {"core.fill_requests", d(sum.fillRequests), "count"},
            {"core.writeback_requests", d(sum.writebackRequests), "count"},
            {"core.ns_per_tick", ratio(self(Layer::Core) * 1e9,
                                       d(sum.ticks)), "ns"},
            {"core.self_s", self(Layer::Core), "s"},
            {"core.bus_utilization", ratio(bus, n), "fraction"},
            {"core.row_hit_rate", ratio(row, n), "fraction"},
            {"core.queue_ticks", ratio(queue, n), "ticks"},
            {"core.served_by_fast", d(sum.servedByFast), "count"},
            {"core.early_wake_fraction",
             ratio(d(sum.earlyWakes), d(sum.demandMisses)), "fraction"},
            {"sim.ticks", d(sum.ticks), "count"},
            {"sim.self_s", self(Layer::Sim), "s"},
            {"sim.engine_cpu_ratio", ratio(system_run_cpu, untimed_cpu),
             "ratio"},
            {"trace.overhead_ratio", ratio(traced_cpu, untimed_cpu),
             "ratio"},
        };
        res_.perLayer.insert(res_.perLayer.end(), counts_.begin(),
                             counts_.end());

        double total = 0;
        for (double v : sum.selfSeconds)
            total += v;
        for (std::size_t l = 0; l < e2e::kLayers; ++l) {
            const Layer layer = static_cast<Layer>(l);
            std::printf("layer %s %-9s self_s=%.4f share=%.1f%%\n",
                        w_.name.c_str(), e2e::layerName(layer),
                        self(layer), 100.0 * ratio(self(layer), total));
        }
        return res_;
    }

    const Workload &w_;
    const Options &opt_;
    WorkloadResult res_;
    /** Each run's first repetition; later ones must match its digest. */
    std::vector<std::optional<SystemRun>> firstRuns_;
    std::vector<Metric> counts_;
    ProbeTotals mark_;           ///< where the current interval began
    std::vector<double> probes_; ///< mean probe of every interval
};

void
printMetric(const std::string &workload, const Metric &m)
{
    std::printf("metric %s %s %.12g %s", workload.c_str(), m.name.c_str(),
                m.value, m.unit.c_str());
    if (!m.stat.empty())
        std::printf(" %s_of=%zu", m.stat.c_str(), m.reps);
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    setLogThrowOnError(true);
    std::vector<Workload> selected;
    Options opt;
    try {
        opt = parseArgs(argc, argv);
        selected = selectWorkloads(opt);
    } catch (const UsageError &e) {
        std::cerr << "e2e_bench: " << e.message << '\n';
        return 2;
    }

    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::pair<std::string, Metric>> reported;
    for (const Workload &w : selected) {
        WorkloadResult r = Bench(w, opt).run();
        for (const Metric &m : r.endToEnd)
            printMetric(w.name, m);
        for (const Metric &m : r.perLayer)
            printMetric(w.name, m);
        attempted += r.attempted;
        failed += r.failed;
        // The result line carries one metric set: end-to-end untraced,
        // per-layer traced.  Several workloads prefix their names.
        for (const Metric &m : opt.trace ? r.perLayer : r.endToEnd)
            reported.emplace_back(
                selected.size() > 1 ? w.name + "." + m.name : m.name, m);
    }

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < reported.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                    i ? ", " : "", reported[i].first.c_str(),
                    reported[i].second.value,
                    reported[i].second.unit.c_str());
    }
    std::printf("}}\n");
    return failed == 0 ? 0 : 1;
}
