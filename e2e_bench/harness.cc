#include "harness.hh"

#include <chrono>
#include <ctime>
#include <memory>
#include <type_traits>
#include <utility>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "cache/hierarchy.hh"
#include "common/log.hh"
#include "core/memory_backend.hh"
#include "cpu/core.hh"

namespace e2e
{

using namespace hetsim;

const char *
layerName(Layer layer)
{
    switch (layer) {
      case Layer::Sim:
        return "sim";
      case Layer::Workloads:
        return "workloads";
      case Layer::Cpu:
        return "cpu";
      case Layer::Cache:
        return "cache";
      case Layer::Core:
        return "core";
    }
    return "?";
}

double
cpuSeconds()
{
    // The user + sys total getrusage reports, at nanosecond resolution.
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

SimCounters
countersOf(sim::System &system, const sim::RunResult &result)
{
    SimCounters c;
    c.endTick = system.now();
    c.windowTicks = result.windowTicks;
    for (unsigned i = 0; i < system.activeCores(); ++i)
        c.retired.push_back(system.core(i).retired());
    c.demandReads = result.demandReads;
    c.writebacks = result.writebacks;
    c.mshrFullStalls = result.mshrFullStalls;
    c.dramPowerMw = result.dramPowerMw;
    c.busUtilization = result.busUtilization;
    c.rowHitRate = result.rowHitRate;
    return c;
}

namespace
{

/** No-op clock: the untimed harness compiles every span away. */
struct NullClock
{
    void enter(Layer) {}
    void leave() {}
};

/**
 * Self-time accounting for nested spans: the time between any two span
 * boundaries is charged to the innermost open span, so each layer's
 * total is its spans' durations minus the nested spans they contain.
 * Time outside every span (the stepping loop itself) goes to Sim.
 */
class LayerClock
{
  public:
    /** Open the measured interval; spans closed before it (stack
     *  construction) are discarded. */
    void
    start()
    {
        counts_.fill(0);
        startNs_ = steadyNs();
        startCount_ = last_ = now();
    }

    /** Close the interval and fix the counter-to-seconds scale. */
    void
    stop()
    {
        charge();
        const double ns = static_cast<double>(steadyNs() - startNs_);
        nsPerCount_ = ns / static_cast<double>(last_ - startCount_);
    }

    void
    enter(Layer layer)
    {
        charge();
        sim_assert(depth_ + 1 < stack_.size(), "span nesting too deep");
        stack_[++depth_] = layer;
    }

    void
    leave()
    {
        charge();
        --depth_;
    }

    double
    seconds(Layer layer) const
    {
        return static_cast<double>(counts_[static_cast<std::size_t>(layer)]) *
               nsPerCount_ * 1e-9;
    }

  private:
    static std::uint64_t
    steadyNs()
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
    }

    /** Span boundaries read the time-stamp counter where there is one:
     *  it costs a fraction of a clock_gettime call, and every tick
     *  crosses about twenty boundaries. */
    static std::uint64_t
    now()
    {
#if defined(__x86_64__)
        return __rdtsc();
#else
        return steadyNs();
#endif
    }

    void
    charge()
    {
        const std::uint64_t t = now();
        counts_[static_cast<std::size_t>(stack_[depth_])] += t - last_;
        last_ = t;
    }

    std::array<std::uint64_t, kLayers> counts_{};
    std::array<Layer, 8> stack_{};
    std::size_t depth_ = 0;
    std::uint64_t last_ = 0;
    std::uint64_t startCount_ = 0;
    std::uint64_t startNs_ = 0;
    double nsPerCount_ = 1.0;
};

template <typename Clock>
class Span
{
  public:
    Span(Clock &clock, Layer layer) : clock_(clock) { clock_.enter(layer); }
    ~Span() { clock_.leave(); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Clock &clock_;
};

/**
 * MemoryBackend that times every call into the wrapped backend as the
 * `core` layer, and the fill callbacks the backend makes back into the
 * hierarchy as the `cache` layer.  Fill and writeback requests are
 * counted here: only the hierarchy issues them.
 */
class TimedBackend final : public cwf::MemoryBackend
{
  public:
    TimedBackend(std::unique_ptr<cwf::MemoryBackend> inner,
                 LayerClock &clock)
        : inner_(std::move(inner)), clock_(clock)
    {
    }

    std::uint64_t fillRequests() const { return fillRequests_; }
    std::uint64_t writebackRequests() const { return writebackRequests_; }

    void
    setCallbacks(Callbacks callbacks) override
    {
        Span<LayerClock> s(clock_, Layer::Core);
        inner_->setCallbacks(Callbacks{
            [this, fn = std::move(callbacks.criticalArrived)](
                std::uint64_t id, Tick now, bool parity_ok) {
                Span<LayerClock> cb(clock_, Layer::Cache);
                fn(id, now, parity_ok);
            },
            [this, fn = std::move(callbacks.lineCompleted)](
                std::uint64_t id, Tick now) {
                Span<LayerClock> cb(clock_, Layer::Cache);
                fn(id, now);
            },
        });
    }

    unsigned
    plannedCriticalWord(Addr line_addr, unsigned requested_word,
                        bool is_demand) override
    {
        Span<LayerClock> s(clock_, Layer::Core);
        return inner_->plannedCriticalWord(line_addr, requested_word,
                                           is_demand);
    }

    bool
    canAcceptFill(Addr line_addr) const override
    {
        Span<LayerClock> s(clock_, Layer::Core);
        return inner_->canAcceptFill(line_addr);
    }

    void
    requestFill(const FillRequest &request, Tick now) override
    {
        Span<LayerClock> s(clock_, Layer::Core);
        fillRequests_ += 1;
        inner_->requestFill(request, now);
    }

    bool
    canAcceptWriteback(Addr line_addr) const override
    {
        Span<LayerClock> s(clock_, Layer::Core);
        return inner_->canAcceptWriteback(line_addr);
    }

    void
    requestWriteback(Addr line_addr, Tick now) override
    {
        Span<LayerClock> s(clock_, Layer::Core);
        writebackRequests_ += 1;
        inner_->requestWriteback(line_addr, now);
    }

    void
    tick(Tick now) override
    {
        Span<LayerClock> s(clock_, Layer::Core);
        inner_->tick(now);
    }

    bool
    idle() const override
    {
        Span<LayerClock> s(clock_, Layer::Core);
        return inner_->idle();
    }

    void
    resetStats(Tick now) override
    {
        Span<LayerClock> s(clock_, Layer::Core);
        inner_->resetStats(now);
    }

    double
    dramPowerMw(Tick now) const override
    {
        return inner_->dramPowerMw(now);
    }

    double
    busUtilization(Tick now) const override
    {
        return inner_->busUtilization(now);
    }

    cwf::LatencySplit
    latencySplit() const override
    {
        return inner_->latencySplit();
    }

    double rowHitRate() const override { return inner_->rowHitRate(); }
    const char *name() const override { return inner_->name(); }

  private:
    std::unique_ptr<cwf::MemoryBackend> inner_;
    LayerClock &clock_;
    std::uint64_t fillRequests_ = 0;
    std::uint64_t writebackRequests_ = 0;
};

/** Whole-run (warmup + measurement) hierarchy/core counters: the
 *  measurement reset zeroes them, so warmup values are banked first. */
void
bankCounters(LayerSplit &s, const cache::Hierarchy &h,
             const std::vector<std::unique_ptr<cpu::Core>> &cores)
{
    const auto &st = h.stats();
    s.accesses += st.loads.value() + st.stores.value();
    s.demandMisses += st.demandMisses.value();
    s.mshrJoins += st.mshrJoins.value();
    s.mshrFullStalls += h.mshrs().fullStalls().value();
    s.blockedAccesses += st.blockedAccesses.value();
    s.prefetchIssued += st.prefetchIssued.value();
    s.servedByFast += st.servedByFast.value();
    s.earlyWakes += st.earlyWakes.value();
    for (const auto &core : cores)
        s.dispatchStalls += core->dispatchStalls();
}

template <typename Clock>
HarnessRun
stepStack(const sim::SystemParams &params,
          const workloads::BenchmarkProfile &profile, unsigned active_cores,
          const sim::RunConfig &config, Clock &clock)
{
    constexpr bool kTraced = std::is_same_v<Clock, LayerClock>;

    // Same wiring as System's constructor, minus the event-engine hooks
    // (core-touch notifications only feed its batching memo).
    std::unique_ptr<cwf::MemoryBackend> backend = sim::buildBackend(params);
    TimedBackend *timed = nullptr;
    if constexpr (kTraced) {
        auto wrapper =
            std::make_unique<TimedBackend>(std::move(backend), clock);
        timed = wrapper.get();
        backend = std::move(wrapper);
    }
    cache::Hierarchy::Params hp;
    hp.cores = params.cores;
    hp.prefetch.enabled = params.prefetcherEnabled;
    hp.trackPerLineCriticality = params.trackPerLineCriticality;
    hp.trackPageCounts = params.trackPageCounts;
    cache::Hierarchy hierarchy(hp, *backend);

    std::vector<std::unique_ptr<workloads::WorkloadGenerator>> gens;
    std::vector<std::unique_ptr<cpu::Core>> cores;
    std::vector<std::uint64_t> ops(active_cores, 0);
    for (unsigned c = 0; c < active_cores; ++c) {
        const Addr base = static_cast<Addr>(c) << 30;
        gens.push_back(std::make_unique<workloads::WorkloadGenerator>(
            profile, static_cast<std::uint8_t>(c), params.seed + 17 * c,
            base));
        workloads::WorkloadGenerator *gen = gens.back().get();
        std::uint64_t *count = &ops[c];
        cores.push_back(std::make_unique<cpu::Core>(
            static_cast<std::uint8_t>(c), cpu::Core::Params{},
            [gen, count] {
                *count += 1;
                return gen->next();
            },
            hierarchy));
    }
    hierarchy.setWakeFn(
        [&cores, &clock](std::uint8_t core, std::uint16_t slot, Tick when) {
            Span<Clock> s(clock, Layer::Cpu);
            cores[core]->wake(slot, when);
        });
    hierarchy.setBulkMarkFn(
        [&cores, &clock](std::uint8_t core, std::uint16_t slot) {
            Span<Clock> s(clock, Layer::Cpu);
            cores[core]->markBulkWait(slot);
        });

    HarnessRun out;
    LayerSplit &split = out.split;
    const auto &stats = hierarchy.stats();
    Tick now = 0;
    // runSimulation's phase loop: stop at the read target or the cap.
    const auto runUntil = [&](std::uint64_t target, Tick max_ticks) {
        const Tick deadline = now + max_ticks;
        const std::uint64_t start = stats.demandCompletions.value();
        while (stats.demandCompletions.value() - start < target &&
               now < deadline) {
            for (auto &core : cores) {
                Span<Clock> s(clock, Layer::Cpu);
                core->tick(now);
            }
            {
                Span<Clock> s(clock, Layer::Cache);
                hierarchy.tick(now);
            }
            backend->tick(now);
            now += 1;
        }
    };

    const double cpu0 = cpuSeconds();
    if constexpr (kTraced)
        clock.start();
    runUntil(config.warmupReads, config.maxWarmupTicks);
    if constexpr (kTraced)
        bankCounters(split, hierarchy, cores);
    const Tick window_start = now;
    for (auto &core : cores)
        core->resetStats(now);
    hierarchy.resetStats();
    backend->resetStats(now);
    runUntil(config.measureReads, config.maxMeasureTicks);
    if constexpr (kTraced)
        clock.stop();
    out.loopCpuSeconds = cpuSeconds() - cpu0;

    SimCounters &c = out.counters;
    c.endTick = now;
    c.windowTicks = now - window_start;
    for (const auto &core : cores)
        c.retired.push_back(core->retired());
    c.demandReads = stats.demandCompletions.value();
    c.writebacks = stats.writebacks.value();
    c.mshrFullStalls = hierarchy.mshrs().fullStalls().value();
    c.dramPowerMw = backend->dramPowerMw(now);
    c.busUtilization = backend->busUtilization(now);
    c.rowHitRate = backend->rowHitRate();

    if constexpr (kTraced) {
        bankCounters(split, hierarchy, cores);
        for (std::size_t l = 0; l < kLayers; ++l)
            split.selfSeconds[l] = clock.seconds(static_cast<Layer>(l));
        split.opsPerCore = ops;
        for (std::uint64_t n : ops)
            split.ops += n;
        split.ticks = now;
        split.coreTicks = now * active_cores;
        for (std::uint64_t r : c.retired)
            split.retired += r;
        split.fillRequests = timed->fillRequests();
        split.writebackRequests = timed->writebackRequests();
        split.queueTicks = backend->latencySplit().queueTicks;
    }
    return out;
}

} // namespace

HarnessRun
runHarness(const sim::SystemParams &params,
           const workloads::BenchmarkProfile &profile, unsigned active_cores,
           const sim::RunConfig &config, bool traced)
{
    if (traced) {
        LayerClock clock;
        return stepStack(params, profile, active_cores, config, clock);
    }
    NullClock clock;
    return stepStack(params, profile, active_cores, config, clock);
}

namespace
{
/** Keeps the pricing loop observable so it cannot be folded away. */
volatile std::uint64_t g_priceSink = 0;
} // namespace

double
priceGenerator(const workloads::BenchmarkProfile &profile,
               std::uint64_t seed,
               const std::vector<std::uint64_t> &ops_per_core)
{
    std::vector<std::unique_ptr<workloads::WorkloadGenerator>> gens;
    for (std::size_t c = 0; c < ops_per_core.size(); ++c) {
        gens.push_back(std::make_unique<workloads::WorkloadGenerator>(
            profile, static_cast<std::uint8_t>(c), seed + 17 * c,
            static_cast<Addr>(c) << 30));
    }
    std::uint64_t sink = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t c = 0; c < ops_per_core.size(); ++c) {
        workloads::WorkloadGenerator &gen = *gens[c];
        for (std::uint64_t i = 0; i < ops_per_core[c]; ++i) {
            const workloads::MicroOp op = gen.next();
            sink += op.addr + op.isMem;
        }
    }
    const auto t1 = std::chrono::steady_clock::now();
    g_priceSink = sink;
    return std::chrono::duration<double>(t1 - t0).count();
}

} // namespace e2e
