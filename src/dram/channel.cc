#include "dram/channel.hh"

#include <algorithm>

#include "check/checker.hh"
#include "common/attrib.hh"
#include "common/log.hh"
#include "common/trace.hh"

namespace hetsim::dram
{

const char *
toString(DramCmd cmd)
{
    switch (cmd) {
      case DramCmd::Activate:
        return "ACT";
      case DramCmd::Read:
        return "RD";
      case DramCmd::Write:
        return "WR";
      case DramCmd::Precharge:
        return "PRE";
      case DramCmd::CompoundRead:
        return "CRD";
      case DramCmd::CompoundWrite:
        return "CWR";
      case DramCmd::Refresh:
        return "REF";
    }
    return "?";
}

Channel::Channel(std::string name, const DeviceParams &params,
                 unsigned ranks, SchedulerPolicy policy,
                 AddrBusArbiter *shared_cmd_bus)
    : name_(std::move(name)), params_(params), policy_(policy),
      sharedCmdBus_(shared_cmd_bus),
      cycleTicks_(params.clockDivider),
      chipsPerRank_(params.chipsPerRank),
      pendingPerRank_(ranks, 0),
      lastWriteDataEnd_(ranks, 0),
      lastColumnPerBank_(static_cast<std::size_t>(ranks) *
                             params.banksPerRank,
                         kTickNever)
{
    sim_assert(ranks > 0, "channel needs at least one rank");
    ranks_.reserve(ranks);
    for (unsigned r = 0; r < ranks; ++r)
        ranks_.emplace_back(params_, r);
    // Queues live for the channel's whole life at a bounded depth:
    // reserving up front removes reallocation churn from long runs.
    readQ_.reserve(policy_.readQueueCap);
    writeQ_.reserve(policy_.writeQueueCap);
    audit_.reserve(256);
    if (check::armed())
        check_ = std::make_unique<check::ChannelCheck>(name_, params_, ranks);
}

Channel::~Channel() = default;

bool
Channel::canAccept(AccessType type) const
{
    if (type == AccessType::Write)
        return writeQ_.size() < policy_.writeQueueCap;
    return readQ_.size() < policy_.readQueueCap;
}

void
Channel::enqueue(MemRequest req, Tick now)
{
    sim_assert(canAccept(req.type), name_, ": enqueue into full queue");
    sim_assert(req.coord.rank < ranks_.size(), "rank out of range");
    sim_assert(req.coord.bank < params_.banksPerRank, "bank out of range");
    req.enqueue = now;
    HETSIM_TRACE_EVENT(trace::Event::Enqueue, now, req.cookie,
                       req.lineAddr, req.coreId, req.coord.channel,
                       req.part, req.coord.bank);

    if (req.isRead()) {
        // Forward from a queued write to the same line/part: the data is
        // newest in the write queue, no DRAM access needed.  The count
        // index answers "any matching write still queued?" in O(1), and a
        // nonzero count always includes the youngest duplicate — the one
        // holding the newest data.
        if (pendingWriteLines_.count(forwardKey(req)) != 0) {
            req.firstIssue = now;
            // Degenerate phase ledger: the whole forwarding latency is
            // one bus-time phase (queue/prep/cas all zero-width).
            req.columnIssue = now;
            req.dataStart = now;
            req.complete = now + cycleTicks_;
            stats_.forwardedFromWriteQ.inc();
            inflight_.push(std::make_unique<MemRequest>(req));
            return;
        }
        pendingPerRank_[req.coord.rank] += 1;
        readQ_.push_back(std::make_unique<MemRequest>(req));
    } else {
        pendingPerRank_[req.coord.rank] += 1;
        pendingWriteLines_[forwardKey(req)] += 1;
        writeQ_.push_back(std::make_unique<MemRequest>(req));
    }
}

bool
Channel::idle() const
{
    return readQ_.empty() && writeQ_.empty() && inflight_.empty();
}

void
Channel::cycle(Tick now)
{
    nextCycle_ = now + cycleTicks_;

    // Quiet gate: with nothing queued, in flight or draining, a cycle
    // before quietUntil_ would change no state but rank residency, and
    // that in the bucket the last full cycle left each rank in.  Count
    // it; settleQuietCycles() charges the run in one step.
    if (now < quietUntil_ && idle() && !draining_) {
        if (quietCycles_++ == 0)
            quietSince_ = now;
        return;
    }
    settleQuietCycles();

    completeReads(now);
    manageRefresh(now);

    // Write-drain hysteresis (paper Table 1: watermarks 32/16).
    if (draining_) {
        if (writeQ_.empty() ||
            (writeQ_.size() <= policy_.drainLowWatermark &&
             !readQ_.empty())) {
            draining_ = false;
        }
    } else {
        if (writeQ_.size() >= policy_.drainHighWatermark ||
            (readQ_.empty() && !writeQ_.empty())) {
            draining_ = true;
        }
    }

    scheduleCommand(now);
    managePowerDown(now);

    // Residency accounting for the power model.
    for (auto &rank : ranks_)
        rank.accountCycle(now, cycleTicks_);

    // Queues and in-flight reads only empty inside a full cycle, so an
    // idle channel's horizon is always set here before the gate reads it.
    quietUntil_ = idle() && !draining_ ? quietHorizon(now) : 0;
}

Tick
Channel::quietHorizon(Tick now) const
{
    const bool can_sleep =
        params_.idd.hasPowerDown && params_.powerDownIdle != 0;
    const Tick idle_ticks =
        static_cast<Tick>(params_.powerDownIdle) * cycleTicks_;
    Tick until = kTickNever;
    for (const auto &rank : ranks_) {
        // kTickNever on devices without refresh.
        until = std::min(until, rank.nextRefreshDue);
        // A refreshing rank neither sleeps nor changes bucket before its
        // refresh ends; the full cycle there sets its deadline.
        if (rank.refreshing(now))
            until = std::min(until, rank.refreshingUntil);
        else if (can_sleep && !rank.poweredDown())
            until = std::min(until, rank.lastCommand + idle_ticks);
    }
    return until;
}

void
Channel::settleQuietCycles()
{
    if (quietCycles_ == 0)
        return;
    for (auto &rank : ranks_)
        rank.accountCycle(quietSince_, quietCycles_ * cycleTicks_);
    quietCycles_ = 0;
}

void
Channel::completeReads(Tick now)
{
    while (!inflight_.empty() && inflight_.top()->complete <= now) {
        // priority_queue::top() is const; the move is safe because we pop
        // immediately after.
        ReqPtr done = std::move(const_cast<ReqPtr &>(inflight_.top()));
        inflight_.pop();
        if (done->isDemand()) {
            stats_.demandReads.inc();
            stats_.queueLatency.sample(
                static_cast<double>(done->queueLatency()));
            stats_.queueDelayHist.sample(
                static_cast<double>(done->queueLatency()));
            stats_.serviceLatency.sample(
                static_cast<double>(done->serviceLatency()));
            stats_.totalLatency.sample(
                static_cast<double>(done->totalLatency()));
            stats_.phaseQueueHist.sample(
                static_cast<double>(done->queuePhase()));
            stats_.phasePrepHist.sample(
                static_cast<double>(done->prepPhase()));
            stats_.phaseCasHist.sample(
                static_cast<double>(done->casPhase()));
            stats_.phaseBusHist.sample(
                static_cast<double>(done->busPhase()));
        } else {
            stats_.prefetchReads.inc();
        }
        if (check_) [[unlikely]]
            check::phaseLedger(name_, *done);
        emitPhaseSpans(*done);
        if (callback_)
            callback_(*done);
    }
}

void
Channel::emitPhaseSpans(const MemRequest &req) const
{
    if (!trace::detail::g_traceEnabled) [[likely]]
        return;
    // One PhaseSpan record per non-empty ledger phase; tick = span
    // start, aux = duration, detail = attrib::Phase id.
    const auto span = [&](attrib::Phase phase, Tick start, Tick ticks) {
        if (ticks == 0 || start == kTickNever)
            return;
        trace::detail::emit(trace::Event::PhaseSpan, start, req.cookie,
                            req.lineAddr, req.coreId, req.coord.channel,
                            req.part,
                            static_cast<std::uint32_t>(phase),
                            static_cast<std::uint32_t>(ticks));
    };
    span(attrib::Phase::QueueWait, req.enqueue, req.queuePhase());
    span(attrib::Phase::Prep, req.prepIssue, req.prepPhase());
    span(attrib::Phase::Cas, req.columnIssue, req.casPhase());
    span(attrib::Phase::Bus, req.dataStart, req.busPhase());
}

void
Channel::manageRefresh(Tick now)
{
    if (params_.tREFI == 0)
        return;
    for (auto &rank : ranks_) {
        if (now < rank.nextRefreshDue || rank.refreshing(now))
            continue;
        if (rank.poweredDown()) {
            // Wake first; refresh will fire on a later cycle once tXP has
            // elapsed (self-refresh is approximated by this round trip).
            wakeRank(rank.index(), now);
            continue;
        }
        if (now < rank.readyAfterWake(now))
            continue;
        // All banks must be precharge-able before the all-bank refresh.
        bool blocked = false;
        for (const auto &bank : rank.banks) {
            if (bank.isOpen() && !bank.canPrecharge(now)) {
                blocked = true;
                break;
            }
        }
        if (blocked)
            continue;
        rank.startRefresh(now);
        stats_.refreshes.inc();
        recordAudit(DramCmd::Refresh, now,
                    DramCoord{0, static_cast<std::uint8_t>(rank.index()), 0,
                              0, 0},
                    0, 0);
    }
}

void
Channel::managePowerDown(Tick now)
{
    if (!params_.idd.hasPowerDown || params_.powerDownIdle == 0)
        return;
    const Tick idle_ticks =
        static_cast<Tick>(params_.powerDownIdle) * cycleTicks_;
    for (unsigned r = 0; r < ranks_.size(); ++r) {
        Rank &rank = ranks_[r];
        if (rank.poweredDown() || rank.refreshing(now))
            continue;
        if (pendingPerRank_[r] != 0)
            continue;
        if (now < rank.lastCommand + idle_ticks)
            continue;
        // Don't power down while a row still owes tRAS/tWR time.
        bool settled = true;
        for (const auto &bank : rank.banks) {
            if (bank.isOpen() && !bank.canPrecharge(now)) {
                settled = false;
                break;
            }
        }
        if (!settled)
            continue;
        rank.enterPowerDown(now);
        if (check_) [[unlikely]]
            check_->powerDown(r, now);
        stats_.powerDownEntries.inc();
    }
}

bool
Channel::rankAvailable(const Rank &rank, Tick now) const
{
    if (rank.refreshing(now))
        return false;
    if (!rank.poweredDown() && now < rank.readyAfterWake(now))
        return false;
    return true;
}

bool
Channel::wakeIfNeeded(MemRequest &req, Tick now)
{
    if (ranks_[req.coord.rank].poweredDown()) {
        wakeRank(req.coord.rank, now);
        return true; // woke this cycle; command issues once tXP elapses
    }
    return false;
}

void
Channel::wakeRank(unsigned rank, Tick now)
{
    ranks_[rank].exitPowerDown(now);
    if (check_) [[unlikely]]
        check_->wake(rank, now);
}

void
Channel::finishColumnIssue(MemRequest &req, Tick now, Tick data_start)
{
    // One gate check covers both lifecycle events on this hot path.
    if (trace::detail::g_traceEnabled) [[unlikely]] {
        if (req.firstIssue == kTickNever) {
            trace::detail::emit(trace::Event::SchedulerPick, now,
                                req.cookie, req.lineAddr, req.coreId,
                                req.coord.channel, req.part,
                                req.coord.bank);
        }
        trace::detail::emit(trace::Event::BankCas, now, req.cookie,
                            req.lineAddr, req.coreId, req.coord.channel,
                            req.part, req.coord.bank);
    }

    // Bank turnaround: spacing of successive column commands per bank.
    const std::size_t bank_slot =
        static_cast<std::size_t>(req.coord.rank) * params_.banksPerRank +
        req.coord.bank;
    if (lastColumnPerBank_[bank_slot] != kTickNever) {
        stats_.bankTurnaroundHist.sample(
            static_cast<double>(now - lastColumnPerBank_[bank_slot]));
    }
    lastColumnPerBank_[bank_slot] = now;

    const Tick data_end = data_start + params_.ticks(params_.tBurst);
    dataBusFreeAt_ = data_end;
    lastDataEnd_ = data_end;
    lastDataRank_ = req.coord.rank;
    lastDataWasWrite_ = !req.isRead();
    if (!req.isRead())
        lastWriteDataEnd_[req.coord.rank] = data_end;
    stats_.dataBusBusyTicks += params_.ticks(params_.tBurst);

    req.columnIssue = now;
    req.dataStart = data_start;
    if (req.firstIssue == kTickNever)
        req.firstIssue = now;
    req.complete = data_end;
    ranks_[req.coord.rank].lastCommand = now;
}

void
Channel::recordAudit(DramCmd cmd, Tick at, const DramCoord &coord,
                     Tick data_start, Tick data_end)
{
    // Every command issue funnels through here; the protocol validator
    // observes the stream regardless of the audit-buffer setting.
    if (check_) [[unlikely]]
        check_->command(cmd, at, coord, data_start, data_end);
    if (!auditEnabled_)
        return;
    audit_.push_back(AuditEvent{cmd, at, coord.rank, coord.bank, coord.row,
                                data_start, data_end});
}

double
Channel::busUtilization(Tick now) const
{
    const Tick window = now > stats_.windowStart ? now - stats_.windowStart
                                                 : 1;
    return static_cast<double>(stats_.dataBusBusyTicks) /
           static_cast<double>(window);
}

void
Channel::resetStats(Tick now)
{
    stats_.demandReads.reset();
    stats_.prefetchReads.reset();
    stats_.writes.reset();
    stats_.rowHits.reset();
    stats_.rowMisses.reset();
    stats_.forwardedFromWriteQ.reset();
    stats_.refreshes.reset();
    stats_.powerDownEntries.reset();
    stats_.queueLatency.reset();
    stats_.serviceLatency.reset();
    stats_.totalLatency.reset();
    stats_.queueDelayHist.reset();
    stats_.bankTurnaroundHist.reset();
    stats_.phaseQueueHist.reset();
    stats_.phasePrepHist.reset();
    stats_.phaseCasHist.reset();
    stats_.phaseBusHist.reset();
    stats_.dataBusBusyTicks = 0;
    stats_.windowStart = now;
    settleQuietCycles();
    for (auto &rank : ranks_)
        rank.collectActivity(true);
}

void
Channel::registerStats(StatRegistry &registry) const
{
    StatGroup &chan = registry.group("dram/channel/" + name_);
    chan.addCounter("demand_reads", &stats_.demandReads);
    chan.addCounter("prefetch_reads", &stats_.prefetchReads);
    chan.addCounter("writes", &stats_.writes);
    chan.addCounter("refreshes", &stats_.refreshes);
    chan.addCounter("power_down_entries", &stats_.powerDownEntries);
    chan.addAverage("queue_latency_ticks", &stats_.queueLatency);
    chan.addAverage("service_latency_ticks", &stats_.serviceLatency);
    chan.addAverage("total_latency_ticks", &stats_.totalLatency);
    chan.addHistogram("queue_delay_ticks", &stats_.queueDelayHist);
    chan.addGauge("pending_reads",
                  [this] { return static_cast<double>(readQ_.size()); });
    chan.addGauge("pending_writes",
                  [this] { return static_cast<double>(writeQ_.size()); });

    StatGroup &sched = registry.group("dram/scheduler/" + name_);
    sched.addCounter("row_hits", &stats_.rowHits);
    sched.addCounter("row_misses", &stats_.rowMisses);
    sched.addCounter("forwarded_from_write_queue",
                     &stats_.forwardedFromWriteQ);

    StatGroup &bank = registry.group("dram/bank/" + name_);
    bank.addHistogram("turnaround_ticks", &stats_.bankTurnaroundHist);

    StatGroup &phase = registry.group("dram/phase/" + name_);
    phase.addHistogram("queue_wait_ticks", &stats_.phaseQueueHist);
    phase.addHistogram("prep_ticks", &stats_.phasePrepHist);
    phase.addHistogram("cas_ticks", &stats_.phaseCasHist);
    phase.addHistogram("bus_ticks", &stats_.phaseBusHist);
}

std::vector<RankActivity>
Channel::collectActivity(bool reset)
{
    settleQuietCycles();
    std::vector<RankActivity> out;
    out.reserve(ranks_.size());
    for (auto &rank : ranks_)
        out.push_back(rank.collectActivity(reset));
    return out;
}

} // namespace hetsim::dram
