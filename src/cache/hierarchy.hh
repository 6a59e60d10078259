/**
 * @file
 * Two-level cache hierarchy glue: per-core private L1s, a shared L2, the
 * stride prefetcher, the MSHR file with two-part line buffering, and the
 * writeback path to the memory backend.
 *
 * This layer implements the paper's processor-side CWF mechanics: on an
 * LLC miss the backend may return the critical word early; waiting loads
 * whose requested word matches the fast fragment are woken immediately
 * (guarded by the parity check), everything else waits for the full line
 * plus ECC.
 */

#ifndef HETSIM_CACHE_HIERARCHY_HH
#define HETSIM_CACHE_HIERARCHY_HH

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "cache/cache.hh"
#include "cache/mshr.hh"
#include "cache/prefetcher.hh"
#include "common/stats.hh"
#include "common/trace.hh"
#include "common/types.hh"
#include "core/memory_backend.hh"

namespace hetsim::cache
{

class Hierarchy
{
  public:
    struct Params
    {
        unsigned cores = 8;
        Cache::Params l1{"l1", 32 * 1024, 2};       // Table 1
        Cache::Params l2{"l2", 4 * 1024 * 1024, 8}; // Table 1
        unsigned l1Latency = 1;
        unsigned l2Latency = 10;
        unsigned mshrs = 128;
        StridePrefetcher::Params prefetch;
        /** Record per-line critical-word histograms (Fig. 3). */
        bool trackPerLineCriticality = false;
        /** Record per-page access counts (Section 7.1 profiling). */
        bool trackPageCounts = false;
    };

    enum class Outcome : std::uint8_t { Ready, Pending, Blocked };

    struct AccessResult
    {
        Outcome outcome = Outcome::Ready;
        Tick readyAt = 0;
        HitLevel level = HitLevel::L1;
        /** Pending load that can only be completed by the bulk (rest of
         *  line) fragment: the fast word already arrived and did not
         *  satisfy it.  Feeds the core's CPI-stack bulk-wait bucket. */
        bool bulkWait = false;
    };

    /** Wake a load parked in a core's ROB slot. */
    using WakeFn =
        std::function<void(std::uint8_t core, std::uint16_t slot, Tick)>;

    /** Tag a parked load as waiting on the bulk fragment (the fast word
     *  arrived but could not serve it); CPI-stack attribution only. */
    using BulkMarkFn =
        std::function<void(std::uint8_t core, std::uint16_t slot)>;

    Hierarchy(const Params &params, cwf::MemoryBackend &backend);

    void setWakeFn(WakeFn fn) { wake_ = std::move(fn); }
    void setBulkMarkFn(BulkMarkFn fn) { bulkMark_ = std::move(fn); }

    /** Issue a load; Pending means the core will be woken via WakeFn.
     *  An L1 hit resolves inline; a miss goes to accessImpl(). */
    AccessResult
    load(std::uint8_t core, std::uint16_t slot, Addr addr, Tick now)
    {
        stats_.loads.inc();
        const Addr line = lineBase(addr);
        HETSIM_TRACE_EVENT(trace::Event::CoreIssue, now, 0, line, core, 0,
                           0, wordOfLine(addr));
        if (l1s_[core].hit(line, /*mark_dirty=*/false)) [[likely]]
            return l1Hit(core, line, now);
        return accessImpl(core, slot, addr, now, /*is_store=*/false);
    }

    /** Issue a store (never blocks the ROB beyond Blocked-retry). */
    AccessResult
    store(std::uint8_t core, Addr addr, Tick now)
    {
        stats_.stores.inc();
        const Addr line = lineBase(addr);
        if (l1s_[core].hit(line, /*mark_dirty=*/true)) [[likely]]
            return l1Hit(core, line, now);
        return accessImpl(core, /*slot=*/0, addr, now, /*is_store=*/true);
    }

    /** Per-tick housekeeping: drains the writeback queue. */
    void tick(Tick now);

    // ---- statistics ----
    struct HierStats
    {
        Counter loads;
        Counter stores;
        Counter demandMisses;       ///< demand LLC misses (loads+stores)
        Counter demandCompletions;  ///< demand fills finished
        Counter prefetchIssued;
        Counter storeMisses;
        Counter mshrJoins;          ///< secondary misses merged
        Counter blockedAccesses;
        Counter servedByFast;       ///< requested word came from fast DIMM
        Counter earlyWakes;         ///< loads woken by the fast fragment
        Counter parityBlockedWakes;
        Counter writebacks;
        std::array<Counter, kWordsPerLine> criticalWordHist;
        Average criticalWordLatency;  ///< ticks until requested word
        Average fastLead;             ///< slow - fast arrival gap, ticks
        Average secondAccessGap;      ///< alloc -> second-word access
        Counter secondAccesses;
        Counter secondBeforeComplete;
        /** Requested-word latency distribution (same samples as the
         *  criticalWordLatency average). */
        Histogram criticalWordLatencyHist{4.0, 512};
        /** Fast-vs-slow fragment arrival gap distribution, ticks. */
        Histogram fastLeadHist{4.0, 512};
        /** How much earlier an early-woken load ran vs waiting for the
         *  full line, ticks. */
        Histogram earlyWakeLeadHist{4.0, 512};
        /** Demand miss latency (MSHR alloc -> line complete), ticks. */
        Histogram missLatencyHist{16.0, 512};
        // ---- latency-attribution phases (DESIGN.md section 12) ----
        /** L1/L2 lookup service latency for cache hits, ticks. */
        Histogram lookupLatencyHist{1.0, 64};
        /** Parked-load wait (waiter join -> wake), ticks. */
        Histogram mshrWaitHist{16.0, 512};
    };

    const HierStats &stats() const { return stats_; }

    /** Register `cache/hierarchy` and `cache/mshr` stat groups. */
    void registerStats(StatRegistry &registry) const;
    const MshrFile &mshrs() const { return mshrs_; }
    /** MshrFile::checkDrained on this hierarchy's MSHRs. */
    void checkDrained() { mshrs_.checkDrained(); }
    const Cache &l2() const { return l2_; }
    const Cache &l1(unsigned core) const { return l1s_[core]; }
    const StridePrefetcher &prefetcher() const { return prefetcher_; }

    void resetStats();

    /** Fraction of demand misses whose requested word was word @p w. */
    double criticalWordFraction(unsigned w) const;

    /** Per-line critical-word histograms (only when tracking enabled). */
    using LineHist = std::array<std::uint32_t, kWordsPerLine>;
    const std::unordered_map<Addr, LineHist> &lineCriticality() const
    {
        return lineCriticality_;
    }

    /** Per-page access counts (only when tracking enabled). */
    const std::unordered_map<std::uint64_t, std::uint64_t> &
    pageCounts() const
    {
        return pageCounts_;
    }

  private:
    /** Result of an L1 hit on @p line.  By L2 inclusion an L1-resident
     *  line has no MSHR: MSHRs are allocated only for lines absent from
     *  L2, and a fill installs its line and releases its MSHR in one
     *  step.  So a hit needs no MSHR probe, except by the validator. */
    AccessResult
    l1Hit(std::uint8_t core, Addr line, Tick now)
    {
        if (check_) [[unlikely]]
            checkL1Hit(core, line, now);
        stats_.lookupLatencyHist.sampleIn(
            l1LatencyBucket_, static_cast<double>(params_.l1Latency));
        return {Outcome::Ready, now + params_.l1Latency, HitLevel::L1};
    }

    void checkL1Hit(std::uint8_t core, Addr line, Tick now) const;

    /** An access that missed its L1: MSHR join, L2, or LLC miss. */
    AccessResult accessImpl(std::uint8_t core, std::uint16_t slot,
                            Addr addr, Tick now, bool is_store);

    void onCriticalArrived(std::uint64_t mshr_id, Tick now, bool parity_ok);
    void onLineCompleted(std::uint64_t mshr_id, Tick now);

    void installLine(MshrEntry &entry, Tick now);
    void fillL1(std::uint8_t core, Addr line_addr, bool dirty);
    void queueWriteback(Addr line_addr);
    void trainAndPrefetch(std::uint8_t core, Addr line_addr, Tick now);

    Params params_;
    cwf::MemoryBackend &backend_;
    WakeFn wake_;
    BulkMarkFn bulkMark_;

    std::vector<Cache> l1s_;
    Cache l2_;
    MshrFile mshrs_;
    StridePrefetcher prefetcher_;

    std::deque<Addr> pendingWritebacks_;
    std::vector<Addr> prefetchScratch_;

    HierStats stats_;
    /** lookupLatencyHist buckets of an L1 and an L2 hit. */
    std::size_t l1LatencyBucket_;
    std::size_t l2LatencyBucket_;
    std::unordered_map<Addr, LineHist> lineCriticality_;
    std::unordered_map<std::uint64_t, std::uint64_t> pageCounts_;
    /** Built while check::armed(): run the stateless validator rules. */
    bool check_;
};

} // namespace hetsim::cache

#endif // HETSIM_CACHE_HIERARCHY_HH
