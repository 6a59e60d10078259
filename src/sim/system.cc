#include "sim/system.hh"

#include <chrono>
#include <sstream>

#include "common/env.hh"
#include "common/log.hh"

namespace hetsim::sim
{

System::System(const SystemParams &params,
               const workloads::BenchmarkProfile &profile,
               unsigned active_cores,
               std::unique_ptr<cwf::MemoryBackend> backend)
    : System(
          params, profile.name, active_cores,
          [&profile, seed = params.seed](std::uint8_t core, Addr base) {
              return cpu::Core::OpSource(workloads::WorkloadGenerator(
                  profile, core, seed + 17 * core, base));
          },
          std::move(backend))
{
}

System::System(const SystemParams &params, std::string workload,
               unsigned active_cores, const SourceFactory &sources,
               std::unique_ptr<cwf::MemoryBackend> backend)
    : params_(params), workload_(std::move(workload)),
      activeCores_(active_cores), backend_(std::move(backend))
{
    validate(params_);
    sim_assert(activeCores_ >= 1 && activeCores_ <= params_.cores,
               "active core count out of range");

    if (!backend_)
        backend_ = buildBackend(params_);

    cache::Hierarchy::Params hp;
    hp.cores = params_.cores;
    hp.prefetch.enabled = params_.prefetcherEnabled;
    hp.trackPerLineCriticality = params_.trackPerLineCriticality;
    hp.trackPageCounts = params_.trackPageCounts;
    hierarchy_ = std::make_unique<cache::Hierarchy>(hp, *backend_);

    for (unsigned c = 0; c < activeCores_; ++c) {
        // Each core owns a disjoint 1 GB slice of the physical address
        // space (multiprogrammed copies / one NPB thread per core).
        const auto id = static_cast<std::uint8_t>(c);
        cores_.push_back(std::make_unique<cpu::Core>(
            id, cpu::Core::Params{}, sources(id, static_cast<Addr>(c) << 30),
            *hierarchy_));
    }

    hierarchy_->setWakeFn(
        [this](std::uint8_t core, std::uint16_t slot, Tick when) {
            cores_.at(core)->wake(slot, when);
        });
    hierarchy_->setBulkMarkFn([this](std::uint8_t core,
                                     std::uint16_t slot) {
        cores_.at(core)->markBulkWait(slot);
    });

    // All components live as long as the System, so registered stat
    // pointers and gauge closures stay valid for the registry's life.
    for (const auto &core : cores_)
        core->registerStats(statRegistry_);
    hierarchy_->registerStats(statRegistry_);
    backend_->registerStats(statRegistry_);

    profiling_ = envFlag("HETSIM_PROFILE", false);
}

void
System::tickProfiled()
{
    using clock = std::chrono::steady_clock;
    const auto ns = [](clock::time_point a, clock::time_point b) {
        return std::chrono::duration<double, std::nano>(b - a).count();
    };
    const auto t0 = clock::now();
    for (auto &core : cores_)
        core->tick(now_);
    const auto t1 = clock::now();
    hierarchy_->tick(now_);
    const auto t2 = clock::now();
    backend_->tick(now_);
    const auto t3 = clock::now();
    selfProfile_.ticks += 1;
    selfProfile_.coresNs += ns(t0, t1);
    selfProfile_.hierarchyNs += ns(t1, t2);
    selfProfile_.backendNs += ns(t2, t3);
    now_ += 1;
}

std::string
System::profileJson() const
{
    const SelfProfile &p = selfProfile_;
    std::ostringstream os;
    os << "{\"ticks\":" << p.ticks;
    os.setf(std::ios::fixed);
    os.precision(3);
    os << ",\"cores_ms\":" << p.coresNs / 1e6
       << ",\"hierarchy_ms\":" << p.hierarchyNs / 1e6
       << ",\"backend_ms\":" << p.backendNs / 1e6 << "}";
    return os.str();
}

void
System::resetStats()
{
    windowStart_ = now_;
    for (auto &core : cores_)
        core->resetStats(now_);
    hierarchy_->resetStats();
    backend_->resetStats(now_);
}

double
System::aggregateIpc() const
{
    double sum = 0;
    for (const auto &core : cores_)
        sum += core->ipc(now_);
    return sum;
}

std::vector<double>
System::perCoreIpc() const
{
    std::vector<double> out;
    for (const auto &core : cores_)
        out.push_back(core->ipc(now_));
    return out;
}

} // namespace hetsim::sim
