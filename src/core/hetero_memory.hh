/**
 * @file
 * Concrete main-memory organisations:
 *
 *  - HomogeneousMemory: whole-line memory on N identical channels of one
 *    device type (the DDR3 baseline and the all-RLDRAM3 / all-LPDDR2
 *    comparison points of Fig. 1), optionally with a hot tier: one more
 *    channel of a second device holding a profiled set of hot pages.
 *    That tiered form is the Section 7.1 comparison — hot pages on a
 *    0.5 GB RLDRAM3 channel, the rest on three LPDDR2 channels
 *    (iso-pin, iso-chip-count).
 *
 *  - CwfHeteroMemory: the paper's contribution (Fig. 5c).  Each line is
 *    split: words 1-7 + SECDED ECC on a slow 64-bit channel (LPDDR2 or
 *    DDR3, 8 chips/rank; the SECDED check is a modelled zero-cost step
 *    when the line completes), the layout-designated critical word + byte
 *    parity on the aggregated fast channel (x9 sub-ranked RLDRAM3 or
 *    close-page DDR3).  Fills issue two independent requests; the fast
 *    fragment wakes waiting loads early (parity permitting) and the
 *    full line completes when both fragments have arrived.
 */

#ifndef HETSIM_CORE_HETERO_MEMORY_HH
#define HETSIM_CORE_HETERO_MEMORY_HH

#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/stats.hh"
#include "core/agg_channel.hh"
#include "core/line_layout.hh"
#include "core/memory_backend.hh"
#include "dram/address_map.hh"
#include "dram/channel.hh"
#include "fault/fault_model.hh"

namespace hetsim::check
{
class FillCheck;
} // namespace hetsim::check

namespace hetsim::cwf
{

/** Average DRAM power over each channel's current stats window, mW. */
double aggregatePowerMw(const std::vector<const dram::Channel *> &channels);

/** Demand-read latency split pooled over channels. */
LatencySplit aggregateLatency(
    const std::vector<const dram::Channel *> &channels);

/** Row-buffer hit fraction pooled over channels. */
double aggregateRowHitRate(
    const std::vector<const dram::Channel *> &channels);

/** Pick the top pages by access count up to @p budget_pages (ties go
 *  to the lower page number). */
std::unordered_set<std::uint64_t>
selectHotPages(const std::unordered_map<std::uint64_t, std::uint64_t> &counts,
               std::size_t budget_pages);

// --------------------------------------------------------------------

class HomogeneousMemory : public MemoryBackend
{
  public:
    struct Params
    {
        dram::DeviceParams device;
        unsigned channels = 4;     // Table 1
        unsigned ranksPerChannel = 1;
        dram::SchedulerPolicy sched;
        /** Hot-tier device: one 1-rank channel, index `channels`, that
         *  holds the hot pages.  Unset means no hot tier. */
        std::optional<dram::DeviceParams> hotDevice;
    };

    /** @p hot_pages (page numbers) is used only with a hot tier. */
    explicit HomogeneousMemory(
        const Params &params,
        std::unordered_set<std::uint64_t> hot_pages = {});

    void setCallbacks(Callbacks callbacks) override;
    unsigned plannedCriticalWord(Addr, unsigned, bool) override
    {
        return kNoFastWord;
    }
    bool canAcceptFill(Addr line_addr) const override;
    void requestFill(const FillRequest &request, Tick now) override;
    bool canAcceptWriteback(Addr line_addr) const override;
    void requestWriteback(Addr line_addr, Tick now) override;
    void tick(Tick now) override;
    bool idle() const override;
    void resetStats(Tick now) override;
    double dramPowerMw(Tick now) const override;
    double busUtilization(Tick now) const override;
    LatencySplit latencySplit() const override;
    double rowHitRate() const override;
    const char *name() const override { return name_.c_str(); }
    void registerStats(StatRegistry &registry) const override;

    dram::Channel &channel(unsigned i) { return *channels_.at(i); }
    const dram::AddressMap &addressMap() const { return map_; }

    /** Fills routed to the hot / the other channels (hot tier only). */
    const Counter &fastAccesses() const { return fastAccesses_; }
    const Counter &slowAccesses() const { return slowAccesses_; }

  private:
    bool isHot(Addr line_addr) const;
    unsigned channelOf(Addr line_addr) const;
    dram::DramCoord coordOf(Addr line_addr) const;
    std::vector<const dram::Channel *> channelViews() const;

    Params params_;
    std::string name_;
    dram::AddressMap map_;
    /** Set iff there is a hot tier: 1 channel, 1 rank. */
    std::optional<dram::AddressMap> hotMap_;
    std::unordered_set<std::uint64_t> hotPages_;
    /** The `channels` channels, then the hot channel if any. */
    std::vector<std::unique_ptr<dram::Channel>> channels_;
    Callbacks cb_;
    std::uint64_t nextReqId_ = 1;

    Counter fastAccesses_;
    Counter slowAccesses_;
};

// --------------------------------------------------------------------

class CwfHeteroMemory : public MemoryBackend
{
  public:
    struct Params
    {
        std::string configName = "RL";
        dram::DeviceParams slowDevice;  ///< words 1-7 + ECC
        dram::DeviceParams fastDevice;  ///< critical word + parity
        unsigned slowChannels = 4;
        unsigned ranksPerSlowChannel = 1;
        unsigned slowChipsPerRank = 8;   // words 1-7 + ECC (Fig. 5b)
        unsigned fastSubChannels = 4;
        unsigned ranksPerFastSub = 4;    // four x9 single-chip ranks
        unsigned fastChipsPerRank = 1;
        /** Fig. 5c shared addr/cmd bus; false = Fig. 5b dedicated
         *  buses (one controller per critical-word channel). */
        bool sharedCommandBus = true;
        dram::SchedulerPolicy sched;
        fault::FaultParams fault; ///< critical-word parity failures
        /** Seeds the parity-failure draws (SystemParams::seed). */
        std::uint64_t seed = 0;
    };

    CwfHeteroMemory(const Params &params,
                    std::unique_ptr<LineLayout> layout);
    ~CwfHeteroMemory() override;

    void setCallbacks(Callbacks callbacks) override;
    unsigned plannedCriticalWord(Addr line_addr, unsigned requested_word,
                                 bool is_demand) override;
    bool canAcceptFill(Addr line_addr) const override;
    void requestFill(const FillRequest &request, Tick now) override;
    bool canAcceptWriteback(Addr line_addr) const override;
    void requestWriteback(Addr line_addr, Tick now) override;
    void tick(Tick now) override;
    bool idle() const override;
    void resetStats(Tick now) override;
    double dramPowerMw(Tick now) const override;
    double busUtilization(Tick now) const override;
    LatencySplit latencySplit() const override;
    double rowHitRate() const override;
    const char *name() const override { return params_.configName.c_str(); }
    void registerStats(StatRegistry &registry) const override;

    LineLayout &layout() { return *layout_; }
    AggregatedFastChannel &fastChannel() { return fast_; }
    dram::Channel &slowChannel(unsigned i) { return *slow_.at(i); }
    unsigned slowChannelCount() const
    {
        return static_cast<unsigned>(slow_.size());
    }

    /** Fast-fragment latency statistics (paper Fig. 7 support). */
    const Average &fastFragmentLatency() const { return fastLatency_; }
    const Average &slowFragmentLatency() const { return slowLatency_; }
    const Counter &parityErrorsInjected() const { return parityErrors_; }

    /** Protocol validator: every fill still pending and every parity
     *  fault still unresolved is a leak (call once idle(); no-op unless
     *  built armed). */
    void checkDrained();

  private:
    struct PendingFill
    {
        bool fastDone = false;
        bool slowDone = false;
        Tick fastTick = 0;
        Tick slowTick = 0;
        /** Id of the parity fault on the fast word (0 = none), resolved
         *  (served from the SECDED-protected rest of the line) when the
         *  line completes. */
        std::uint64_t fastFault = 0;
    };

    unsigned fastSubOf(std::uint64_t line_index) const;
    dram::DramCoord fastCoordOf(std::uint64_t line_index) const;
    void onSlowResponse(dram::MemRequest &req);
    void onFastResponse(dram::MemRequest &req);
    void maybeComplete(std::uint64_t mshr_id, PendingFill &pending);

    Params params_;
    std::unique_ptr<LineLayout> layout_;
    dram::AddressMap slowMap_;
    dram::AddressMap fastSubMap_; ///< within one fast sub-channel
    std::vector<std::unique_ptr<dram::Channel>> slow_;
    AggregatedFastChannel fast_;
    Callbacks cb_;
    fault::FaultModel faultModel_;
    std::uint64_t nextReqId_ = 1;

    std::unordered_map<std::uint64_t, PendingFill> pending_;

    Average fastLatency_;
    Average slowLatency_;
    Counter parityErrors_;
    /** Fast-word lead consumed waiting for the bulk fragment
     *  (max(0, slowTick - fastTick)); DESIGN.md section 12. */
    Histogram bulkWaitHist_{4.0, 512};
    /** Pending fills; null unless built while check::armed(). */
    std::unique_ptr<check::FillCheck> check_;
};

} // namespace hetsim::cwf

#endif // HETSIM_CORE_HETERO_MEMORY_HH
