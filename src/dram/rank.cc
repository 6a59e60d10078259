#include "dram/rank.hh"

#include <algorithm>

#include "common/log.hh"

namespace hetsim::dram
{

Rank::Rank(const DeviceParams &params, unsigned index)
    : params_(params), index_(index)
{
    banks.resize(params.banksPerRank);
    if (params.tREFI > 0) {
        // Stagger refresh phases across ranks so the channel never loses
        // all ranks at once.
        nextRefreshDue =
            params.ticks(params.tREFI) * (index + 1) / 4 + 1;
    }
}

bool
Rank::fawAllows(Tick now) const
{
    if (params_.tFAW == 0)
        return true;
    if (actCount_ < actWindow_.size())
        return true; // window not yet full
    // actWindow_[actWindowIdx_] is the time of the activate issued four
    // activates ago; a fifth activate must be tFAW after it.
    const Tick fourth_ago = actWindow_[actWindowIdx_];
    return now >= fourth_ago + params_.ticks(params_.tFAW);
}

bool
Rank::rrdAllows(Tick now) const
{
    if (params_.tRRD == 0 || lastActivate_ == kTickNever)
        return true;
    return now >= lastActivate_ + params_.ticks(params_.tRRD);
}

void
Rank::recordActivate(Tick now)
{
    lastActivate_ = now;
    actWindow_[actWindowIdx_] = now;
    actWindowIdx_ = (actWindowIdx_ + 1) % actWindow_.size();
    actCount_ += 1;
    activity_.activates += 1;
    lastCommand = now;
}

void
Rank::enterPowerDown(Tick now)
{
    sim_assert(params_.idd.hasPowerDown, "power-down on incapable device");
    sim_assert(!poweredDown_, "double power-down entry");
    // The aggressive sleep policy precharges all banks on entry so the
    // rank sits in the cheapest (precharge power-down) state.
    for (auto &bank : banks)
        bank.forceClose(now, params_);
    poweredDown_ = true;
    wakeReady_ = now + params_.ticks(params_.tCKE);
}

void
Rank::exitPowerDown(Tick now)
{
    sim_assert(poweredDown_, "power-down exit while awake");
    poweredDown_ = false;
    wakeReady_ = std::max(wakeReady_, now) + params_.ticks(params_.tXP);
    // The wake itself is rank activity: without this the idle timer
    // would put the rank straight back to sleep before the command (or
    // refresh) that triggered the wake could issue.
    lastCommand = now;
}

Tick
Rank::readyAfterWake(Tick now) const
{
    return std::max(now, wakeReady_);
}

void
Rank::startRefresh(Tick now)
{
    sim_assert(!poweredDown_, "refresh while powered down");
    for (auto &bank : banks) {
        bank.forceClose(now, params_);
        bank.nextActivate =
            std::max(bank.nextActivate, now + params_.ticks(params_.tRFC));
    }
    refreshingUntil = now + params_.ticks(params_.tRFC);
    nextRefreshDue += params_.ticks(params_.tREFI);
    refreshes += 1;
    activity_.refreshes += 1;
    lastCommand = now;
}

void
Rank::accountCycle(Tick now, Tick cycle_ticks)
{
    activity_.windowTicks += cycle_ticks;
    if (refreshing(now))
        activity_.refreshTicks += cycle_ticks;
    else if (poweredDown_)
        activity_.pdnTicks += cycle_ticks;
    else if (anyBankOpen())
        activity_.actStbyTicks += cycle_ticks;
    else
        activity_.preStbyTicks += cycle_ticks;
}

RankActivity
Rank::collectActivity(bool reset)
{
    RankActivity snapshot = activity_;
    // Command counters live on the banks; fold them in.
    snapshot.reads = 0;
    snapshot.writes = 0;
    std::uint64_t bank_acts = 0;
    for (const auto &bank : banks) {
        snapshot.reads += bank.reads;
        snapshot.writes += bank.writes;
        bank_acts += bank.activates;
    }
    snapshot.activates = bank_acts;
    if (reset) {
        activity_ = RankActivity{};
        for (auto &bank : banks)
            bank.resetStats();
    }
    return snapshot;
}

bool
Rank::anyBankOpen() const
{
    return std::any_of(banks.begin(), banks.end(),
                       [](const Bank &b) { return b.isOpen(); });
}

} // namespace hetsim::dram
