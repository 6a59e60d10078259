/**
 * @file
 * CwfHeteroMemory: the paper's critical-word-first heterogeneous memory
 * controller (Sections 4.2.2-4.2.4).  An LLC miss creates two
 * transactions — the critical-word fragment on the aggregated fast
 * channel and the rest-of-line+ECC fragment on the slow channel — whose
 * completions are matched back up here and reported to the hierarchy's
 * MSHRs.
 */

#include <algorithm>

#include "check/checker.hh"
#include "common/log.hh"
#include "common/trace.hh"
#include "core/hetero_memory.hh"
#include "power/chip_power.hh"

namespace hetsim::cwf
{

namespace
{

/** Effective fault knobs: the legacy `parityErrorRate` Bernoulli knob
 *  folds into the unified model as extra transient rate on the fast
 *  critical-word path, and an unset fault seed derives from the
 *  backend seed so same-seed runs hit the same fault sites. */
fault::FaultParams
cwfFaultParams(const CwfHeteroMemory::Params &params)
{
    fault::FaultParams p = params.fault;
    p.fastExtraTransient += params.parityErrorRate;
    if (p.seed == 0)
        p.seed = params.seed;
    return p;
}

} // namespace

CwfHeteroMemory::CwfHeteroMemory(const Params &params,
                                 std::unique_ptr<LineLayout> layout)
    : params_(params), layout_(std::move(layout)),
      slowMap_(dram::MapScheme::OpenPage, params.slowChannels,
               params.ranksPerSlowChannel, params.slowDevice.banksPerRank,
               params.slowDevice.rowsPerBank,
               params.slowDevice.lineColsPerRow),
      // Within one fast sub-channel the word-granularity close-page map
      // spreads consecutive lines over ranks then banks for parallelism.
      fastSubMap_(dram::MapScheme::ClosePage, 1, params.ranksPerFastSub,
                  params.fastDevice.banksPerRank,
                  params.fastDevice.rowsPerBank,
                  params.fastDevice.lineColsPerRow),
      fast_(params.fastDevice, params.fastSubChannels,
            params.ranksPerFastSub, params.fastChipsPerRank, params.sched,
            params.sharedCommandBus),
      faultModel_(cwfFaultParams(params)), retryLadder_(faultModel_),
      subDegraded_(params.fastSubChannels, false)
{
    sim_assert(layout_, "CWF memory needs a line layout");
    sim_assert(params_.slowChannels == params_.fastSubChannels,
               "one fast sub-channel per slow channel (Fig. 5c)");
    for (unsigned c = 0; c < params_.slowChannels; ++c) {
        auto chan = std::make_unique<dram::Channel>(
            params_.configName + ".slow" + std::to_string(c),
            params_.slowDevice, params_.ranksPerSlowChannel, params_.sched);
        chan->setChipsPerRank(params_.slowChipsPerRank);
        slow_.push_back(std::move(chan));
    }
}

CwfHeteroMemory::~CwfHeteroMemory()
{
    check::onCwfDomainDestroyed(this);
}

void
CwfHeteroMemory::setCallbacks(Callbacks callbacks)
{
    cb_ = std::move(callbacks);
    for (auto &chan : slow_) {
        chan->setCallback(
            [this](dram::MemRequest &req) { onSlowResponse(req); });
    }
    fast_.setCallback(
        [this](dram::MemRequest &req) { onFastResponse(req); });
}

unsigned
CwfHeteroMemory::plannedCriticalWord(Addr line_addr,
                                     unsigned requested_word,
                                     bool is_demand)
{
    // Degraded mode: a retired fast sub-channel no longer serves
    // critical words, so its lines are not fragmented.  Degradation
    // only flips inside backend tick callbacks, never between this call
    // and the requestFill of the same access, so plan and issue agree.
    if (retiredSubs_ != 0 &&
        subDegraded_[fastSubOf(line_addr >> kLineShift)])
        return kNoFastWord;
    return layout_->plannedWord(line_addr, requested_word, is_demand);
}

unsigned
CwfHeteroMemory::fastSubOf(std::uint64_t line_index) const
{
    // The fast sub-channel shadows the slow channel of the same line so
    // both fragments enjoy the same channel-level interleaving.
    return static_cast<unsigned>(line_index % params_.fastSubChannels);
}

dram::DramCoord
CwfHeteroMemory::fastCoordOf(std::uint64_t line_index) const
{
    const unsigned sub = fastSubOf(line_index);
    dram::DramCoord coord =
        fastSubMap_.decode(line_index / params_.fastSubChannels);
    coord.channel = static_cast<std::uint8_t>(sub);
    return coord;
}

bool
CwfHeteroMemory::canAcceptFill(Addr line_addr) const
{
    const std::uint64_t line = line_addr >> kLineShift;
    const unsigned slow_ch = slowMap_.channelOf(line);
    const unsigned sub = fastSubOf(line);
    if (!slow_[slow_ch]->canAccept(AccessType::Read))
        return false;
    // A degraded line is served slow-only; the retired fast sub-channel
    // exerts no backpressure on it.
    return subDegraded_[sub] || fast_.sub(sub).canAccept(AccessType::Read);
}

void
CwfHeteroMemory::requestFill(const FillRequest &request, Tick now)
{
    const std::uint64_t line = request.lineAddr >> kLineShift;
    const AccessType type =
        request.isPrefetch ? AccessType::Prefetch : AccessType::Read;
    const bool degraded = subDegraded_[fastSubOf(line)];

    PendingFill fill;
    fill.slowOnly = degraded;
    fill.issued = now;
    pending_.emplace(request.mshrId, fill);
    check::onCwfFillIssued(this, request.mshrId, now,
                           /*has_fast=*/!degraded);

    dram::MemRequest slow_req;
    slow_req.id = nextReqId_++;
    slow_req.lineAddr = request.lineAddr;
    slow_req.type = type;
    slow_req.coreId = request.coreId;
    slow_req.cookie = request.mshrId;
    slow_req.part = dram::MemRequest::kRestPart;
    slow_req.coord = slowMap_.decode(line);
    slow_[slow_req.coord.channel]->enqueue(slow_req, now);

    if (degraded) {
        faultModel_.noteDegradedFill();
        return;
    }

    dram::MemRequest fast_req;
    fast_req.id = nextReqId_++;
    fast_req.lineAddr = request.lineAddr;
    fast_req.type = type;
    fast_req.coreId = request.coreId;
    fast_req.cookie = request.mshrId;
    fast_req.part = dram::MemRequest::kCriticalPart;
    fast_req.coord = fastCoordOf(line);
    fast_.sub(fast_req.coord.channel).enqueue(fast_req, now);
}

bool
CwfHeteroMemory::canAcceptWriteback(Addr line_addr) const
{
    const std::uint64_t line = line_addr >> kLineShift;
    const unsigned slow_ch = slowMap_.channelOf(line);
    const unsigned sub = fastSubOf(line);
    if (!slow_[slow_ch]->canAccept(AccessType::Write))
        return false;
    return subDegraded_[sub] || fast_.sub(sub).canAccept(AccessType::Write);
}

void
CwfHeteroMemory::requestWriteback(Addr line_addr, Tick now)
{
    // A dirty writeback is the moment adaptive layouts re-organise the
    // line (Section 4.2.5).
    layout_->onWriteback(line_addr);

    const std::uint64_t line = line_addr >> kLineShift;

    dram::MemRequest slow_req;
    slow_req.id = nextReqId_++;
    slow_req.lineAddr = line_addr;
    slow_req.type = AccessType::Write;
    slow_req.part = dram::MemRequest::kRestPart;
    slow_req.coord = slowMap_.decode(line);
    slow_[slow_req.coord.channel]->enqueue(slow_req, now);

    // The retired fast copy of a degraded line is out of service; the
    // slow channel holds the authoritative data.
    if (subDegraded_[fastSubOf(line)])
        return;

    dram::MemRequest fast_req;
    fast_req.id = nextReqId_++;
    fast_req.lineAddr = line_addr;
    fast_req.type = AccessType::Write;
    fast_req.part = dram::MemRequest::kCriticalPart;
    fast_req.coord = fastCoordOf(line);
    fast_.sub(fast_req.coord.channel).enqueue(fast_req, now);
}

void
CwfHeteroMemory::onSlowResponse(dram::MemRequest &req)
{
    if (!req.isRead())
        return;
    const auto it = pending_.find(req.cookie);
    sim_assert(it != pending_.end(), "slow response without pending fill");
    PendingFill &p = it->second;
    sim_assert(!p.slowDone, "duplicate slow fragment");

    // Recovery ladder (DESIGN.md section 14): run fault injection on
    // the bulk fragment before it is accepted.  A correctable error is
    // fixed in place by SECDED/chipkill; an uncorrectable one parks a
    // backed-off re-read and the fragment is NOT accepted — the retry
    // arrives later through this same handler with a fresh request, so
    // the fragment/SECDED protocol checks fire once, on the accepted
    // arrival only.
    if (!retryLadder_.onReadComplete(fault::ReadPath::SlowBulk,
                                     req.lineAddr, req.coord, req.cookie,
                                     req.coreId, req.complete)) {
        HETSIM_TRACE_EVENT(trace::Event::FaultRetry, req.complete,
                           req.cookie, req.lineAddr, req.coreId,
                           req.coord.channel, req.part, 0);
        return;
    }

    check::onCwfFragment(this, req.cookie, /*fast=*/false, req.complete);
    p.slowDone = true;
    p.slowTick = req.complete;
    slowLatency_.sample(static_cast<double>(req.totalLatency()));
    // The rest-of-line fragment carries the SECDED code; the check runs
    // as the fragment arrives (paper Section 4.2.3).
    check::onCwfSecded(this, req.cookie, req.complete);
    HETSIM_TRACE_EVENT(trace::Event::SecdedCheck, req.complete, req.cookie,
                       req.lineAddr, req.coreId, req.coord.channel,
                       req.part, 1);
    maybeComplete(req.cookie, p);
}

void
CwfHeteroMemory::onFastResponse(dram::MemRequest &req)
{
    if (!req.isRead())
        return;
    const auto it = pending_.find(req.cookie);
    sim_assert(it != pending_.end(), "fast response without pending fill");
    PendingFill &p = it->second;
    sim_assert(!p.fastDone, "duplicate fast fragment");
    check::onCwfFragment(this, req.cookie, /*fast=*/true, req.complete);
    p.fastDone = true;
    p.fastTick = req.complete;
    fastLatency_.sample(static_cast<double>(req.totalLatency()));

    // Byte parity on the fast word is detect-only: any injected fault
    // fails parity, the early wake is cancelled, and the word is served
    // from the SECDED-protected bulk copy when the line completes
    // (resolution recorded in maybeComplete).  Persistent faults
    // accumulate per-site history and eventually retire the sub-channel.
    bool parity_ok = true;
    const fault::Injection inj =
        faultModel_.onRead(fault::ReadPath::FastCritical, req.lineAddr,
                           req.coord, req.complete);
    if (inj.faulty()) {
        parity_ok = false;
        parityErrors_.inc();
        p.fastFault = inj;
        if (faultModel_.noteSiteFault(inj))
            retireFastSub(req.coord.channel);
    }
    HETSIM_TRACE_EVENT(trace::Event::FastArrive, p.fastTick, req.cookie,
                       req.lineAddr, req.coreId, req.coord.channel,
                       req.part, parity_ok ? 1 : 0);
    if (cb_.criticalArrived)
        cb_.criticalArrived(req.cookie, p.fastTick, parity_ok);
    maybeComplete(req.cookie, p);
}

void
CwfHeteroMemory::maybeComplete(std::uint64_t mshr_id, PendingFill &pending)
{
    if (pending.slowOnly) {
        if (!pending.slowDone)
            return;
        const Tick done = pending.slowTick;
        faultModel_.sampleDegradedLatency(done - pending.issued);
        check::onCwfComplete(this, mshr_id, kTickNever, pending.slowTick,
                             done);
        pending_.erase(mshr_id);
        if (cb_.lineCompleted)
            cb_.lineCompleted(mshr_id, done);
        return;
    }
    if (!pending.fastDone || !pending.slowDone)
        return;
    const Tick done = std::max(pending.fastTick, pending.slowTick);
    const Tick bulk_wait = pending.slowTick > pending.fastTick
                               ? pending.slowTick - pending.fastTick
                               : 0;
    bulkWaitHist_.sample(static_cast<double>(bulk_wait));
    // A parity-detected fast-word fault is resolved here: the whole
    // line (bulk copy included) has arrived, so the faulty word was
    // corrected off the ECC-protected slow fragment.
    if (pending.fastFault.faulty())
        faultModel_.resolve(pending.fastFault, fault::Resolution::Corrected,
                            done);
    check::onCwfComplete(this, mshr_id, pending.fastTick, pending.slowTick,
                         done);
    pending_.erase(mshr_id);
    if (cb_.lineCompleted)
        cb_.lineCompleted(mshr_id, done);
}

void
CwfHeteroMemory::retireFastSub(unsigned sub)
{
    if (subDegraded_[sub])
        return;
    subDegraded_[sub] = true;
    ++retiredSubs_;
    faultModel_.noteRegionRetired();
    warn("CWF ", params_.configName, ": fast sub-channel ", sub,
         " retired after repeated persistent faults; serving its lines "
         "slow-only");
}

void
CwfHeteroMemory::drainRetries(Tick now)
{
    if (retryLadder_.empty())
        return;
    retryLadder_.drain(now, [this, now](const fault::RetryRead &r) {
        if (!slow_[r.coord.channel]->canAccept(AccessType::Read))
            return false;
        dram::MemRequest req;
        req.id = nextReqId_++;
        req.lineAddr = r.lineAddr;
        req.type = AccessType::Read;
        req.coreId = r.coreId;
        req.cookie = r.cookie;
        req.part = dram::MemRequest::kRestPart;
        req.coord = r.coord;
        slow_[req.coord.channel]->enqueue(req, now);
        return true;
    });
}

void
CwfHeteroMemory::tick(Tick now)
{
    // Release due re-reads before the channels advance so a retry
    // enqueued at tick T is scheduled exactly like a hierarchy request
    // arriving at T.
    drainRetries(now);
    for (auto &chan : slow_)
        chan->tick(now);
    fast_.tick(now);
}

bool
CwfHeteroMemory::idle() const
{
    if (!fast_.idle() || !pending_.empty() || !retryLadder_.empty())
        return false;
    return std::all_of(slow_.begin(), slow_.end(),
                       [](const auto &c) { return c->idle(); });
}

void
CwfHeteroMemory::resetStats(Tick now)
{
    for (auto &chan : slow_)
        chan->resetStats(now);
    fast_.resetStats(now);
    fastLatency_.reset();
    slowLatency_.reset();
    parityErrors_.reset();
    bulkWaitHist_.reset();
}

double
CwfHeteroMemory::dramPowerMw(Tick) const
{
    std::vector<const dram::Channel *> views;
    for (const auto &chan : slow_)
        views.push_back(chan.get());
    for (unsigned s = 0; s < fast_.subChannels(); ++s)
        views.push_back(&fast_.sub(s));
    return aggregatePowerMw(views);
}

double
CwfHeteroMemory::busUtilization(Tick now) const
{
    // The slow channels carry 7/8ths of every line plus ECC; they are
    // the system's principal data path and define "bus utilization" for
    // the Fig. 11 analysis.
    double sum = 0;
    for (const auto &chan : slow_)
        sum += chan->busUtilization(now);
    return sum / static_cast<double>(slow_.size());
}

double
CwfHeteroMemory::rowHitRate() const
{
    // Row hits only exist on the open-page slow channels.
    std::vector<const dram::Channel *> views;
    for (const auto &chan : slow_)
        views.push_back(chan.get());
    return aggregateRowHitRate(views);
}

LatencySplit
CwfHeteroMemory::latencySplit() const
{
    std::vector<const dram::Channel *> views;
    for (const auto &chan : slow_)
        views.push_back(chan.get());
    for (unsigned s = 0; s < fast_.subChannels(); ++s)
        views.push_back(&fast_.sub(s));
    return aggregateLatency(views);
}

void
CwfHeteroMemory::registerStats(StatRegistry &registry) const
{
    for (const auto &chan : slow_)
        chan->registerStats(registry);
    for (unsigned s = 0; s < fast_.subChannels(); ++s)
        fast_.sub(s).registerStats(registry);

    StatGroup &g = registry.group("core/cwf_controller");
    g.addAverage("fast_fragment_latency_ticks", &fastLatency_);
    g.addAverage("slow_fragment_latency_ticks", &slowLatency_);
    g.addHistogram("bulk_wait_ticks", &bulkWaitHist_);
    g.addCounter("parity_errors_injected", &parityErrors_);
    g.addGauge("pending_fills",
               [this] { return static_cast<double>(pending_.size()); });
    g.addGauge("cmd_bus_grants", [this] {
        return static_cast<double>(fast_.arbiter().grants());
    });
    g.addGauge("cmd_bus_conflicts", [this] {
        return static_cast<double>(fast_.arbiter().conflicts());
    });

    // Only at nonzero rates: zero-rate runs keep their stat report (and
    // golden digests) byte-identical to a build without the subsystem.
    if (faultModel_.enabled())
        faultModel_.registerStats(registry);
}

} // namespace hetsim::cwf
