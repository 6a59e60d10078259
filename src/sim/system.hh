/**
 * @file
 * Whole-system assembly: per-core op sources, cores, cache hierarchy and
 * the memory backend, wired together and advanced on the global CPU
 * clock one cycle at a time — every core, then the hierarchy, then the
 * backend, on every tick.  This is the only place a simulated stack is
 * wired: suite workloads, traces and hand-configured backends all come
 * in through the constructors.
 */

#ifndef HETSIM_SIM_SYSTEM_HH
#define HETSIM_SIM_SYSTEM_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/stats.hh"
#include "cpu/core.hh"
#include "sim/system_config.hh"
#include "workloads/suite.hh"

namespace hetsim::sim
{

class System
{
  public:
    /** Builds the op stream of core @p core, whose addresses live in
     *  the 1 GB slice starting at @p base. */
    using SourceFactory =
        std::function<cpu::Core::OpSource(std::uint8_t core, Addr base)>;

    /**
     * Runs @p profile's generator on each active core, seeded
     * params.seed + 17 * core.
     *
     * @param active_cores  cores actually running the workload; the
     *        paper's IPC_alone runs use 1, shared runs use params.cores.
     * @param backend  memory to wire in; null builds buildBackend(params).
     */
    System(const SystemParams &params,
           const workloads::BenchmarkProfile &profile,
           unsigned active_cores,
           std::unique_ptr<cwf::MemoryBackend> backend = nullptr);

    /** Runs the op streams @p sources makes for each active core; the
     *  reports name the run @p workload. */
    System(const SystemParams &params, std::string workload,
           unsigned active_cores, const SourceFactory &sources,
           std::unique_ptr<cwf::MemoryBackend> backend = nullptr);

    /** The hierarchy's callbacks hold this System's address. */
    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** Advance one CPU cycle: tick every core in id order, then the
     *  hierarchy, then the backend. */
    void
    tick()
    {
        if (profiling_) [[unlikely]] {
            tickProfiled();
            return;
        }
        for (auto &core : cores_)
            core->tick(now_);
        hierarchy_->tick(now_);
        backend_->tick(now_);
        now_ += 1;
    }

    Tick now() const { return now_; }

    unsigned activeCores() const { return activeCores_; }
    cpu::Core &core(unsigned i) { return *cores_.at(i); }
    cache::Hierarchy &hierarchy() { return *hierarchy_; }
    cwf::MemoryBackend &backend() { return *backend_; }
    const SystemParams &params() const { return params_; }
    /** Name of the workload the cores run (a suite benchmark or a
     *  trace). */
    const std::string &workload() const { return workload_; }

    /**
     * Host-side main-loop self-profile (HETSIM_PROFILE=1, or
     * setProfiling): ticks stepped and wall-clock per component group.
     * Pure observation — the simulated behaviour and every report are
     * unchanged.
     */
    struct SelfProfile
    {
        std::uint64_t ticks = 0;  ///< ticks stepped while profiling
        double coresNs = 0.0;     ///< wall-clock inside core ticks
        double hierarchyNs = 0.0; ///< wall-clock inside hierarchy ticks
        double backendNs = 0.0;   ///< wall-clock inside backend ticks
    };

    void setProfiling(bool on) { profiling_ = on; }
    bool profilingEnabled() const { return profiling_; }
    const SelfProfile &selfProfile() const { return selfProfile_; }

    /** One-line JSON object rendering of selfProfile() (bench reports). */
    std::string profileJson() const;

    /** Open a fresh measurement window at the current tick. */
    void resetStats();

    /** Sum of per-core IPCs over the current window. */
    double aggregateIpc() const;

    /** Per-core IPC over the current window. */
    std::vector<double> perCoreIpc() const;

    Tick windowStart() const { return windowStart_; }

    /** Registry enumerating every component's stat group; populated
     *  once at construction, values read live. */
    const StatRegistry &statRegistry() const { return statRegistry_; }

  private:
    void tickProfiled();

    SystemParams params_;
    std::string workload_;
    unsigned activeCores_;

    std::unique_ptr<cwf::MemoryBackend> backend_;
    std::unique_ptr<cache::Hierarchy> hierarchy_;
    std::vector<std::unique_ptr<cpu::Core>> cores_;

    StatRegistry statRegistry_;

    Tick now_ = 0;
    Tick windowStart_ = 0;
    bool profiling_ = false;
    SelfProfile selfProfile_;
};

} // namespace hetsim::sim

#endif // HETSIM_SIM_SYSTEM_HH
