/**
 * @file
 * One DRAM channel: transaction queues, FR-FCFS command scheduling, bank
 * and rank timing, data/command bus arbitration, refresh and power-down
 * management.
 *
 * The controller is cycle-driven on its own memory clock (tick() is called
 * every global tick and acts only on memory-cycle boundaries).  One command
 * may issue per memory cycle; when several sub-channels share a command bus
 * (the paper's aggregated RLDRAM organisation) an external AddrBusArbiter
 * gates issue instead.
 */

#ifndef HETSIM_DRAM_CHANNEL_HH
#define HETSIM_DRAM_CHANNEL_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "dram/dram_params.hh"
#include "dram/rank.hh"
#include "dram/request.hh"

namespace hetsim::check
{
class ChannelCheck;
} // namespace hetsim::check

namespace hetsim::dram
{

/** DRAM command classes (audit/trace granularity). */
enum class DramCmd : std::uint8_t {
    Activate,
    Read,
    Write,
    Precharge,
    CompoundRead,  ///< RLDRAM single-command access
    CompoundWrite,
    Refresh,
};

const char *toString(DramCmd cmd);

/**
 * Shared address/command bus for the aggregated RLDRAM channel: all
 * sub-channels must win a one-command-per-memory-cycle slot before issuing
 * (paper Section 4.2.4: the double-pumped bus carries one command per
 * cycle, a 4:1 data:command occupancy ratio).
 */
class AddrBusArbiter
{
  public:
    explicit AddrBusArbiter(Tick cycle_ticks) : cycleTicks_(cycle_ticks) {}

    /** Try to claim the command slot covering @p now. */
    bool
    tryReserve(Tick now)
    {
        if (now < busyUntil_) {
            conflicts_ += 1;
            return false;
        }
        busyUntil_ = now + cycleTicks_;
        grants_ += 1;
        return true;
    }

    std::uint64_t conflicts() const { return conflicts_; }
    std::uint64_t grants() const { return grants_; }

    void
    resetStats()
    {
        conflicts_ = 0;
        grants_ = 0;
    }

  private:
    Tick cycleTicks_;
    Tick busyUntil_ = 0;
    std::uint64_t conflicts_ = 0;
    std::uint64_t grants_ = 0;
};

/** Scheduler tuning knobs (paper Table 1 defaults). */
struct SchedulerPolicy
{
    unsigned readQueueCap = 48;
    unsigned writeQueueCap = 48;
    unsigned drainHighWatermark = 32;
    unsigned drainLowWatermark = 16;
    /** Prefetch age (ticks) after which it is promoted to demand
     *  priority at the controller (paper Section 5). */
    Tick prefetchPromoteAge = 3200; // 1 us at 3.2 GHz
};

class Channel
{
  public:
    /** Invoked when a read transaction's data has fully returned. */
    using RespCallback = std::function<void(MemRequest &)>;

    Channel(std::string name, const DeviceParams &params, unsigned ranks,
            SchedulerPolicy policy = SchedulerPolicy{},
            AddrBusArbiter *shared_cmd_bus = nullptr);
    ~Channel();

    void setCallback(RespCallback cb) { callback_ = std::move(cb); }

    /** Queue admission check; callers must not enqueue when false. */
    bool canAccept(AccessType type) const;

    /** Hand a decoded transaction to the controller.  @p now must be
     *  the current tick: the request is eligible to issue at once. */
    void enqueue(MemRequest req, Tick now);

    /** Advance to @p now; acts only on memory-cycle boundaries. */
    void
    tick(Tick now)
    {
        if (now >= nextCycle_)
            cycle(now);
    }

    const DeviceParams &params() const { return params_; }
    const std::string &name() const { return name_; }
    unsigned rankCount() const { return static_cast<unsigned>(ranks_.size()); }

    std::size_t pendingReads() const { return readQ_.size(); }
    std::size_t pendingWrites() const { return writeQ_.size(); }
    std::size_t inflightReads() const { return inflight_.size(); }
    bool idle() const;

    // ---- statistics ----
    struct ChannelStats
    {
        Counter demandReads;
        Counter prefetchReads;
        Counter writes;
        Counter rowHits;
        Counter rowMisses;
        Counter forwardedFromWriteQ;
        Counter refreshes;
        Counter powerDownEntries;
        Average queueLatency;   ///< demand reads, ticks
        Average serviceLatency; ///< demand reads, ticks
        Average totalLatency;   ///< demand reads, ticks
        std::uint64_t dataBusBusyTicks = 0;
        Tick windowStart = 0;
        // Observability-only members stay at the end so the hot fields
        // above keep their cache-line placement.
        /** Demand-read controller queueing delay distribution, ticks. */
        Histogram queueDelayHist{16.0, 512};
        /** Gap between consecutive column commands to the same bank
         *  (bank turnaround), ticks. */
        Histogram bankTurnaroundHist{4.0, 512};
        /** Per-request phase ledger distributions over demand reads
         *  (DESIGN.md section 12): the four phases partition
         *  [enqueue, complete] exactly. */
        Histogram phaseQueueHist{16.0, 512};
        Histogram phasePrepHist{4.0, 512};
        Histogram phaseCasHist{4.0, 512};
        Histogram phaseBusHist{4.0, 512};
    };

    const ChannelStats &stats() const { return stats_; }

    /** Register this channel's stats as `dram/channel/<name>`,
     *  `dram/scheduler/<name>` and `dram/bank/<name>` groups. */
    void registerStats(StatRegistry &registry) const;

    /** Data-bus utilization over the current window ending at @p now. */
    double busUtilization(Tick now) const;

    /** Reset window statistics (start of measurement interval). */
    void resetStats(Tick now);

    /** Harvest per-rank activity for the power model. */
    std::vector<RankActivity> collectActivity(bool reset);

    /** Chips ganged per rank for power scaling (overrides the device
     *  default; the CWF fast DIMM uses 1 x9 chip per sub-rank). */
    void setChipsPerRank(unsigned chips) { chipsPerRank_ = chips; }
    unsigned chipsPerRank() const { return chipsPerRank_; }

    // ---- audit trace for property tests ----
    struct AuditEvent
    {
        DramCmd cmd;
        Tick at = 0;
        std::uint8_t rank = 0;
        std::uint8_t bank = 0;
        std::uint32_t row = 0;
        Tick dataStart = 0; ///< 0 when no data phase
        Tick dataEnd = 0;
    };

    void enableAudit(bool on) { auditEnabled_ = on; }
    const std::vector<AuditEvent> &audit() const { return audit_; }
    void clearAudit() { audit_.clear(); }

  private:
    using ReqPtr = std::unique_ptr<MemRequest>;

    // Implemented in scheduler.cc: one FR-FCFS scheduling step.
    void scheduleCommand(Tick now);
    bool tryIssueFrom(std::vector<ReqPtr> &queue, bool is_write_queue,
                      Tick now);
    bool tryColumn(MemRequest &req, Tick now, bool commit);
    bool tryPrep(MemRequest &req, Tick now);
    /** Finish a committed column: erase queue[@p idx] (keeping arrival
     *  order) and push reads in flight. */
    void retireIssued(std::vector<ReqPtr> &queue, std::size_t idx,
                      bool is_write_queue);

    static std::uint64_t
    forwardKey(const MemRequest &req)
    {
        return (static_cast<std::uint64_t>(req.lineAddr) << 2) | req.part;
    }

    // Implemented in channel.cc.
    /** One memory cycle at @p now, or a skipped quiet one. */
    void cycle(Tick now);
    /** Earliest tick at which a cycle with nothing queued, in flight or
     *  draining would change more than residency: a refresh falling
     *  due, a running refresh ending, or an awake rank reaching its
     *  power-down deadline. */
    Tick quietHorizon(Tick now) const;
    /** Charge the skipped quiet cycles to every rank's residency. */
    void settleQuietCycles();
    void completeReads(Tick now);
    /** Emit the four ledger phases of a completed read as trace
     *  PhaseSpan records (no-op while tracing is off). */
    void emitPhaseSpans(const MemRequest &req) const;
    void manageRefresh(Tick now);
    void managePowerDown(Tick now);
    bool rankAvailable(const Rank &rank, Tick now) const;
    void finishColumnIssue(MemRequest &req, Tick now, Tick data_start);
    void recordAudit(DramCmd cmd, Tick at, const DramCoord &coord,
                     Tick data_start, Tick data_end);
    bool wakeIfNeeded(MemRequest &req, Tick now);
    void wakeRank(unsigned rank, Tick now);

    std::string name_;
    DeviceParams params_;
    SchedulerPolicy policy_;
    AddrBusArbiter *sharedCmdBus_;
    Tick cycleTicks_;
    Tick nextCycle_ = 0;
    /** Quiet cycles before this tick skip the cycle body (see cycle()). */
    Tick quietUntil_ = 0;
    /** Skipped quiet cycles not yet charged to rank residency, and the
     *  tick of the first of them. */
    std::uint64_t quietCycles_ = 0;
    Tick quietSince_ = 0;
    unsigned chipsPerRank_;

    std::vector<Rank> ranks_;
    std::vector<unsigned> pendingPerRank_;

    std::vector<ReqPtr> readQ_;
    std::vector<ReqPtr> writeQ_;
    bool draining_ = false;

    /** Queued-write index keyed by (lineAddr << 2) | part -> count, for
     *  O(1) read forwarding in enqueue(); counts rather than positions
     *  so duplicate lines forward for as long as any (i.e. including
     *  the youngest) matching write is still queued. */
    std::unordered_map<std::uint64_t, std::uint32_t> pendingWriteLines_;

    struct InflightCmp
    {
        bool
        operator()(const ReqPtr &a, const ReqPtr &b) const
        {
            return a->complete > b->complete;
        }
    };
    std::priority_queue<ReqPtr, std::vector<ReqPtr>, InflightCmp> inflight_;

    // Data bus state.
    Tick dataBusFreeAt_ = 0;
    Tick lastDataEnd_ = 0;
    int lastDataRank_ = -1;
    bool lastDataWasWrite_ = false;
    std::vector<Tick> lastWriteDataEnd_; // per rank, for tWTR

    RespCallback callback_;
    ChannelStats stats_;

    bool auditEnabled_ = false;
    std::vector<AuditEvent> audit_;

    // Observability-only state, kept last (see ChannelStats note).
    std::vector<Tick> lastColumnPerBank_; ///< turnaround tracking
    /** Protocol validator state; null unless built while check::armed(). */
    std::unique_ptr<check::ChannelCheck> check_;
};

} // namespace hetsim::dram

#endif // HETSIM_DRAM_CHANNEL_HH
