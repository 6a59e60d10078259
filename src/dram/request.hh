/**
 * @file
 * Memory transaction record passed between the cache hierarchy and the
 * DRAM channel controllers.
 */

#ifndef HETSIM_DRAM_REQUEST_HH
#define HETSIM_DRAM_REQUEST_HH

#include <cstdint>

#include "common/types.hh"

namespace hetsim::dram
{

/** Fully decoded DRAM coordinates of one transaction. */
struct DramCoord
{
    std::uint8_t channel = 0;
    std::uint8_t rank = 0;
    std::uint8_t bank = 0;
    std::uint32_t row = 0;
    std::uint32_t col = 0;
};

/**
 * One DRAM transaction (a cache-line fill, a writeback, or — in the CWF
 * organisation — one *part* of a line: the critical word or the
 * rest-of-line+ECC fragment).
 */
struct MemRequest
{
    std::uint64_t id = 0;
    Addr lineAddr = kAddrInvalid;
    AccessType type = AccessType::Read;
    std::uint8_t coreId = 0;

    /**
     * CWF part tag: kWholeLine for conventional fills, kCriticalPart for
     * the fast-DIMM word-k fragment, kRestPart for the slow-DIMM fragment.
     */
    static constexpr std::uint8_t kWholeLine = 0;
    static constexpr std::uint8_t kCriticalPart = 1;
    static constexpr std::uint8_t kRestPart = 2;
    std::uint8_t part = kWholeLine;

    DramCoord coord;

    /** Arrival at the controller queue. */
    Tick enqueue = 0;
    /** First DRAM command issued on this transaction's behalf (for the
     *  queue-vs-core latency split of Fig. 1b). */
    Tick firstIssue = kTickNever;
    /** First preparation command (PRECHARGE or ACTIVATE) the scheduler
     *  issued steered by this request; kTickNever for row hits, write
     *  forwards and compound (RLDRAM) accesses. */
    Tick prepIssue = kTickNever;
    /** Column command issue time. */
    Tick columnIssue = kTickNever;
    /** First tick of the data burst (columnIssue + tRL/tWL). */
    Tick dataStart = kTickNever;
    /** Data fully returned / written. */
    Tick complete = kTickNever;

    /** Opaque cookie for the issuing layer (e.g. MSHR entry id). */
    std::uint64_t cookie = 0;

    /** Scheduler bookkeeping: an ACTIVATE was issued for this request
     *  (false at column time means a row-buffer hit). */
    bool neededActivate = false;

    bool isRead() const { return type != AccessType::Write; }
    bool isDemand() const { return type == AccessType::Read; }

    Tick
    queueLatency() const
    {
        return firstIssue == kTickNever ? 0 : firstIssue - enqueue;
    }

    Tick
    serviceLatency() const
    {
        return complete == kTickNever || firstIssue == kTickNever
                   ? 0
                   : complete - firstIssue;
    }

    Tick
    totalLatency() const
    {
        return complete == kTickNever ? 0 : complete - enqueue;
    }

    // ---- phase ledger (DESIGN.md section 12) ----
    //
    // The four phases below partition [enqueue, complete] exactly for
    // every completed request:
    //
    //   queuePhase + prepPhase + casPhase + busPhase == totalLatency()
    //
    // Queue wait ends at the first command the scheduler issued *steered
    // by this request* (its own PRE/ACT, else its column command): a row
    // opened on another request's behalf is queueing from this request's
    // point of view.  Write-forwarded reads complete with columnIssue ==
    // dataStart == enqueue, so their ledger degenerates to one bus-time
    // phase of the forwarding latency.

    /** Controller queueing before the request's own first command. */
    Tick
    queuePhase() const
    {
        const Tick first =
            prepIssue != kTickNever ? prepIssue : columnIssue;
        return first == kTickNever ? 0 : first - enqueue;
    }

    /** Bank preparation (PRE/ACT churn steered by this request). */
    Tick
    prepPhase() const
    {
        return prepIssue == kTickNever || columnIssue == kTickNever
                   ? 0
                   : columnIssue - prepIssue;
    }

    /** Column access latency (tRL / tWL). */
    Tick
    casPhase() const
    {
        return columnIssue == kTickNever || dataStart == kTickNever
                   ? 0
                   : dataStart - columnIssue;
    }

    /** Data-bus transfer (tBurst; forwarding latency for write hits). */
    Tick
    busPhase() const
    {
        return dataStart == kTickNever || complete == kTickNever
                   ? 0
                   : complete - dataStart;
    }
};

} // namespace hetsim::dram

#endif // HETSIM_DRAM_REQUEST_HH
