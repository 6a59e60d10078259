/**
 * @file
 * Per-rank DRAM state: bank array, tFAW activate window, refresh
 * scheduling, power-down modes, and the state-residency bookkeeping the
 * power model integrates over.
 */

#ifndef HETSIM_DRAM_RANK_HH
#define HETSIM_DRAM_RANK_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "dram/bank.hh"
#include "dram/dram_params.hh"

namespace hetsim::dram
{

/**
 * Per-rank activity snapshot consumed by power::ChipPowerModel.  All tick
 * fields are in global CPU ticks over the collection window; command
 * counts are rank totals (the power model multiplies per-chip energies by
 * the configured chips-per-rank).
 */
struct RankActivity
{
    std::uint64_t activates = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t refreshes = 0;
    Tick actStbyTicks = 0;  ///< row(s) open, not powered down
    Tick preStbyTicks = 0;  ///< all banks closed, not powered down
    Tick pdnTicks = 0;      ///< in power-down
    Tick refreshTicks = 0;  ///< mid-refresh
    Tick windowTicks = 0;   ///< total observed window

    void
    add(const RankActivity &o)
    {
        activates += o.activates;
        reads += o.reads;
        writes += o.writes;
        refreshes += o.refreshes;
        actStbyTicks += o.actStbyTicks;
        preStbyTicks += o.preStbyTicks;
        pdnTicks += o.pdnTicks;
        refreshTicks += o.refreshTicks;
        windowTicks += o.windowTicks;
    }
};

class Rank
{
  public:
    Rank(const DeviceParams &params, unsigned index);

    std::vector<Bank> banks;

    // ---- tFAW / tRRD ----
    /** True if an ACTIVATE at @p now respects the four-activate window. */
    bool fawAllows(Tick now) const;
    /** True if an ACTIVATE at @p now respects the activate-to-activate
     *  spacing to any bank of this rank. */
    bool rrdAllows(Tick now) const;
    void recordActivate(Tick now);

    // ---- power-down ----
    bool poweredDown() const { return poweredDown_; }
    /** Tick of the last command addressed to this rank. */
    Tick lastCommand = 0;
    /** Enter power-down at @p now (closes all rows: precharge PD). */
    void enterPowerDown(Tick now);
    /** Wake the rank; commands become legal tXP later. */
    void exitPowerDown(Tick now);
    /** Earliest tick a command may issue given power state. */
    Tick readyAfterWake(Tick now) const;

    // ---- refresh ----
    Tick nextRefreshDue = kTickNever;
    Tick refreshingUntil = 0;
    bool refreshing(Tick now) const { return now < refreshingUntil; }
    /** Begin a refresh burst at @p now. */
    void startRefresh(Tick now);

    // ---- residency accounting ----
    /** Charge @p ticks (one memory cycle, or a run of cycles in which
     *  the state did not change) to the bucket of the state at @p now. */
    void accountCycle(Tick now, Tick ticks);

    /** Harvest (and optionally clear) the activity window. */
    RankActivity collectActivity(bool reset);

    std::uint64_t refreshes = 0;

    bool anyBankOpen() const { return *openBanks_ != 0; }

    unsigned index() const { return index_; }

  private:
    const DeviceParams &params_;
    unsigned index_;
    bool poweredDown_ = false;
    Tick wakeReady_ = 0;

    std::array<Tick, 4> actWindow_{};
    unsigned actWindowIdx_ = 0;
    std::uint64_t actCount_ = 0;
    Tick lastActivate_ = kTickNever;

    RankActivity activity_;

    /** Banks holding an open row, kept by the banks themselves; held on
     *  the heap so their pointer to it survives a move of the rank. */
    std::unique_ptr<unsigned> openBanks_ = std::make_unique<unsigned>(0);
};

} // namespace hetsim::dram

#endif // HETSIM_DRAM_RANK_HH
