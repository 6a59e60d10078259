/**
 * @file
 * Abstract interface between the cache hierarchy and a main-memory
 * organisation.
 *
 * Implementations (core/hetero_memory.hh) include the homogeneous
 * DDR3/LPDDR2/RLDRAM3 baselines, the paper's critical-word-first
 * heterogeneous designs (RD / RL / DL with static, adaptive, oracle or
 * random critical-word placement), and the page-placement comparison
 * system of Section 7.1.
 *
 * Contract for fills: for configurations with a fast critical-word
 * fragment the backend invokes `criticalArrived` when that fragment
 * returns, and `lineCompleted` once the *whole* line (including ECC) has
 * arrived; `criticalArrived` always precedes `lineCompleted`.
 * Configurations without a fragment invoke only `lineCompleted`.
 */

#ifndef HETSIM_CORE_MEMORY_BACKEND_HH
#define HETSIM_CORE_MEMORY_BACKEND_HH

#include <cstdint>
#include <functional>

#include "common/stats.hh"
#include "common/types.hh"

namespace hetsim::cwf
{

/** Latency decomposition averaged over demand reads (Fig. 1b). */
struct LatencySplit
{
    double queueTicks = 0;    ///< controller queueing
    double serviceTicks = 0;  ///< array access + transfer
    double totalTicks = 0;
};

class MemoryBackend
{
  public:
    virtual ~MemoryBackend() = default;

    struct FillRequest
    {
        Addr lineAddr = kAddrInvalid;
        unsigned requestedWord = 0;
        bool isPrefetch = false;
        std::uint8_t coreId = 0;
        std::uint64_t mshrId = 0;
    };

    struct Callbacks
    {
        /** Fast-fragment arrival: (mshrId, tick, parity_ok). */
        std::function<void(std::uint64_t, Tick, bool)> criticalArrived;
        /** Whole-line arrival: (mshrId, tick). */
        std::function<void(std::uint64_t, Tick)> lineCompleted;
    };

    virtual void setCallbacks(Callbacks callbacks) = 0;

    /** Word index (0..7) this backend keeps on the fast DIMM for
     *  @p line_addr, or MshrEntry::kNoFastWord (=8) when the line is not
     *  fragmented.  @p is_demand lets adaptive/oracle layouts observe
     *  only real demand criticality. */
    virtual unsigned plannedCriticalWord(Addr line_addr,
                                         unsigned requested_word,
                                         bool is_demand) = 0;

    virtual bool canAcceptFill(Addr line_addr) const = 0;
    virtual void requestFill(const FillRequest &request, Tick now) = 0;

    virtual bool canAcceptWriteback(Addr line_addr) const = 0;
    virtual void requestWriteback(Addr line_addr, Tick now) = 0;

    /** Advance all channels to @p now. */
    virtual void tick(Tick now) = 0;

    /** True when no request is queued or in flight anywhere. */
    virtual bool idle() const = 0;

    // ---- measurement window ----
    virtual void resetStats(Tick now) = 0;

    /** Average DRAM power over the window ending at @p now, mW. */
    virtual double dramPowerMw(Tick now) const = 0;

    /** Mean data-bus utilization across data channels. */
    virtual double busUtilization(Tick now) const = 0;

    /** Demand-read latency decomposition, aggregated over channels. */
    virtual LatencySplit latencySplit() const = 0;

    /** Row-buffer hit fraction across column accesses (0 for pure
     *  close-page systems). */
    virtual double rowHitRate() const = 0;

    /** Human-readable configuration name. */
    virtual const char *name() const = 0;

    /** Register this organisation's stat groups (channels, controller
     *  bookkeeping) into @p registry; default registers nothing. */
    virtual void registerStats(StatRegistry &registry) const
    {
        (void)registry;
    }
};

} // namespace hetsim::cwf

#endif // HETSIM_CORE_MEMORY_BACKEND_HH
