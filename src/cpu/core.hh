/**
 * @file
 * ROB-occupancy out-of-order core model (paper Table 1: 8 cores, 3.2 GHz,
 * 64-entry ROB, 4-wide fetch/dispatch/execute/retire).
 *
 * Each cycle the core retires up to `width` completed instructions from
 * the ROB head and dispatches up to `width` new micro-ops from its
 * workload generator.  Loads access the cache hierarchy at dispatch and
 * park in the ROB until data arrives — for LLC misses that is the moment
 * the *critical word* is delivered (possibly tens of cycles before the
 * rest of the line, which is the paper's mechanism).  Pointer-chasing
 * loads (dependsOnPrev) cannot dispatch until the previous load's data
 * returns, serialising misses the way dependent chains do in a real OoO
 * window.
 */

#ifndef HETSIM_CPU_CORE_HH
#define HETSIM_CPU_CORE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <type_traits>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "workloads/suite.hh"

namespace hetsim::cpu
{

class Core
{
  public:
    struct Params
    {
        unsigned robSize = 64; // Table 1
        unsigned width = 4;    // Table 1
    };

    /**
     * Source of the core's instruction stream, called once per
     * dispatched op.  A suite run hands the core its workload generator
     * by value, and the core calls the generator's inline next()
     * directly.  Traces and scripted tests pass any callable that
     * returns a MicroOp; it is called through a std::function.
     * Move-only.
     */
    class OpSource
    {
      public:
        OpSource(workloads::WorkloadGenerator generator)
            : generator_(std::move(generator))
        {
        }

        template <typename F>
            requires(!std::is_same_v<std::decay_t<F>, OpSource> &&
                     std::is_invocable_r_v<workloads::MicroOp, F &>)
        OpSource(F &&fn) : fn_(std::forward<F>(fn))
        {
        }

        OpSource(OpSource &&) = default;

        workloads::MicroOp
        operator()()
        {
            if (generator_) [[likely]]
                return generator_->next();
            return fn_();
        }

        explicit operator bool() const { return generator_ || fn_; }

      private:
        std::optional<workloads::WorkloadGenerator> generator_;
        std::function<workloads::MicroOp()> fn_;
    };

    Core(std::uint8_t id, const Params &params, OpSource source,
         cache::Hierarchy &hierarchy);

    /** Advance one CPU cycle. */
    void tick(Tick now);

    /** Deliver data to a parked load (called via Hierarchy's WakeFn). */
    void wake(std::uint16_t slot, Tick now);

    /** Tag a parked load as waiting on the bulk fragment (called via
     *  Hierarchy's BulkMarkFn); CPI-stack attribution only. */
    void markBulkWait(std::uint16_t slot);

    std::uint8_t id() const { return id_; }

    /**
     * CPI-stack cycle attribution (DESIGN.md section 12).  Every core
     * cycle of a measurement window lands in exactly one bucket, so the
     * bucket sum equals the window's tick count.
     */
    enum class CpiBucket : std::uint8_t {
        Compute,       ///< at least one instruction retired
        CritWait,      ///< head load parked, fast word still to come
        BulkWait,      ///< head load parked, only the bulk line helps
        RobFull,       ///< head in flight (non-load), ROB full
        DispatchStall, ///< dependence wait / blocked access / frontend
    };
    static constexpr unsigned kCpiBuckets = 5;

    std::uint64_t cpiCycles(CpiBucket bucket) const
    {
        return cpi_[static_cast<unsigned>(bucket)];
    }

    // ---- measurement ----
    std::uint64_t retired() const { return retired_; }
    std::uint64_t retiredInWindow() const
    {
        return retired_ - retiredAtWindowStart_;
    }
    void resetStats(Tick now);
    double ipc(Tick now) const;

    std::uint64_t robOccupancySum() const { return robOccupancySum_; }
    std::uint64_t dispatchStalls() const { return dispatchStalls_; }

    /** Register this core's stat group (`cpu/core/<id>`). */
    void registerStats(StatRegistry &registry) const;

  private:
    /** Ready ticks of a parked load: waiting for its critical word, or
     *  (bulk) for the bulk fragment only.  Both compare above any tick,
     *  so a parked ROB head never retires. */
    static constexpr Tick kParked = kTickNever;
    static constexpr Tick kParkedBulk = kTickNever - 1;

    bool robFull() const { return count_ == params_.robSize; }
    /** The ROB slot after @p slot, wrapping at robSize. */
    unsigned
    nextSlot(unsigned slot) const
    {
        return slot + 1 == params_.robSize ? 0 : slot + 1;
    }
    bool lastLoadPending(Tick now) const;
    CpiBucket stallBucket() const;

    std::uint8_t id_;
    Params params_;
    OpSource source_;
    cache::Hierarchy &hierarchy_;

    /** The ROB: a ring of ready ticks, one per slot; entries retire in
     *  order from head_ once their tick is reached. */
    std::vector<Tick> readyAt_;
    unsigned head_ = 0;
    unsigned tail_ = 0;
    unsigned count_ = 0;

    /** Micro-op that could not dispatch (Blocked / dependence) and must
     *  be retried before fetching new work; valid while hasPendingOp_. */
    workloads::MicroOp pendingOp_;
    bool hasPendingOp_ = false;

    /** Slot and 1-based dispatch number of the youngest load; it is
     *  still in the ROB while lastLoadSeq_ > retired_ (in-order
     *  retirement), so a reused slot is never mistaken for it. */
    unsigned lastLoadSlot_ = 0;
    std::uint64_t lastLoadSeq_ = 0;

    std::uint64_t retired_ = 0;
    std::uint64_t retiredAtWindowStart_ = 0;
    Tick windowStart_ = 0;
    std::uint64_t robOccupancySum_ = 0;
    std::uint64_t dispatchStalls_ = 0;
    std::array<std::uint64_t, kCpiBuckets> cpi_{};
};

} // namespace hetsim::cpu

#endif // HETSIM_CPU_CORE_HH
