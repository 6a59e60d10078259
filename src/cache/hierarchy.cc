#include "cache/hierarchy.hh"

#include "check/checker.hh"
#include "common/log.hh"
#include "common/trace.hh"

namespace hetsim::cache
{

Hierarchy::Hierarchy(const Params &params, cwf::MemoryBackend &backend)
    : params_(params), backend_(backend), l2_(params.l2),
      mshrs_(params.mshrs), prefetcher_(params.prefetch),
      l1LatencyBucket_(stats_.lookupLatencyHist.bucketOf(params.l1Latency)),
      l2LatencyBucket_(stats_.lookupLatencyHist.bucketOf(params.l2Latency)),
      check_(check::armed())
{
    sim_assert(params_.cores > 0, "hierarchy needs cores");
    l1s_.reserve(params_.cores);
    for (unsigned c = 0; c < params_.cores; ++c) {
        Cache::Params l1 = params_.l1;
        l1.name = "l1." + std::to_string(c);
        l1s_.emplace_back(l1);
    }
    backend_.setCallbacks(cwf::MemoryBackend::Callbacks{
        [this](std::uint64_t id, Tick now, bool parity_ok) {
            onCriticalArrived(id, now, parity_ok);
        },
        [this](std::uint64_t id, Tick now) { onLineCompleted(id, now); },
    });
}

void
Hierarchy::checkL1Hit(std::uint8_t core, Addr line, Tick now) const
{
    check::l1Hit(line, core, now, mshrs_.find(line) != nullptr);
}

Hierarchy::AccessResult
Hierarchy::accessImpl(std::uint8_t core, std::uint16_t slot, Addr addr,
                      Tick now, bool is_store)
{
    const Addr line = lineBase(addr);
    const unsigned word = wordOfLine(addr);

    // 1. A fill for this line is already in flight: merge into the MSHR.
    //    A join never touched the L1, so it counts no L1 miss.
    if (MshrEntry *entry = mshrs_.find(line)) {
        entry->demandJoined = true;
        if (word != entry->requestedWord &&
            entry->secondAccessTick == kTickNever) {
            entry->secondAccessTick = now;
            stats_.secondAccesses.inc();
        }
        if (is_store) {
            entry->writeAllocate = true;
            return {Outcome::Ready, now + 1, HitLevel::Memory};
        }
        // The critical word may already sit in the MSHR buffer.
        if (entry->fastArrived && entry->fastParityOk &&
            word == entry->storedCriticalWord) {
            return {Outcome::Ready, now + 1, HitLevel::Memory};
        }
        entry->waiters.push_back(MshrWaiter{
            core, slot, static_cast<std::uint8_t>(word), now});
        stats_.mshrJoins.inc();
        // A fast fragment that already arrived and did not satisfy this
        // word (mismatch or parity fail) means only the bulk fragment
        // can wake the load.
        return {Outcome::Pending, kTickNever, HitLevel::Memory,
                entry->fastArrived};
    }

    l1s_[core].countMiss();

    // 2. Shared L2 (inclusive).
    if (l2_.access(line, /*mark_dirty=*/false)) {
        fillL1(core, line, is_store);
        trainAndPrefetch(core, line, now);
        stats_.lookupLatencyHist.sampleIn(
            l2LatencyBucket_, static_cast<double>(params_.l2Latency));
        return {Outcome::Ready, now + params_.l2Latency, HitLevel::L2};
    }

    // 3. LLC miss.
    if (!mshrs_.hasFree()) {
        mshrs_.noteFullStall();
        stats_.blockedAccesses.inc();
        return {Outcome::Blocked, kTickNever, HitLevel::Memory};
    }
    if (!backend_.canAcceptFill(line)) {
        stats_.blockedAccesses.inc();
        return {Outcome::Blocked, kTickNever, HitLevel::Memory};
    }

    MshrEntry *entry = mshrs_.allocate(line, now);
    sim_assert(entry, "MSHR allocation failed after hasFree check");
    entry->requestedWord = word;
    entry->isPrefetch = false;
    entry->writeAllocate = is_store;
    entry->allocCore = core;
    entry->storedCriticalWord =
        backend_.plannedCriticalWord(line, word, /*is_demand=*/true);
    HETSIM_TRACE_EVENT(trace::Event::MshrAlloc, now, entry->id, line, core,
                       0, 0, word);

    stats_.demandMisses.inc();
    if (is_store)
        stats_.storeMisses.inc();
    stats_.criticalWordHist[word].inc();
    if (params_.trackPerLineCriticality)
        lineCriticality_[line][word] += 1;
    if (params_.trackPageCounts)
        pageCounts_[pageOf(line)] += 1;

    if (!is_store) {
        entry->waiters.push_back(MshrWaiter{
            core, slot, static_cast<std::uint8_t>(word), now});
    }

    backend_.requestFill(
        cwf::MemoryBackend::FillRequest{line, word, false, core, entry->id},
        now);

    trainAndPrefetch(core, line, now);

    if (is_store)
        return {Outcome::Ready, now + 1, HitLevel::Memory};
    return {Outcome::Pending, kTickNever, HitLevel::Memory};
}

void
Hierarchy::trainAndPrefetch(std::uint8_t core, Addr line_addr, Tick now)
{
    if (!prefetcher_.enabled())
        return;
    prefetchScratch_.clear();
    prefetcher_.train(core, line_addr, prefetchScratch_);
    for (const Addr target : prefetchScratch_) {
        if (l2_.probe(target) || mshrs_.find(target))
            continue;
        if (!mshrs_.hasFree() || !backend_.canAcceptFill(target))
            break; // prefetches are droppable
        MshrEntry *entry = mshrs_.allocate(target, now);
        entry->requestedWord = 0;
        entry->isPrefetch = true;
        entry->allocCore = core;
        entry->storedCriticalWord =
            backend_.plannedCriticalWord(target, 0, /*is_demand=*/false);
        stats_.prefetchIssued.inc();
        prefetcher_.noteIssued();
        backend_.requestFill(cwf::MemoryBackend::FillRequest{
                                 target, 0, true, core, entry->id},
                             now);
    }
}

void
Hierarchy::onCriticalArrived(std::uint64_t mshr_id, Tick now,
                             bool parity_ok)
{
    MshrEntry &entry = mshrs_.byId(mshr_id);
    sim_assert(!entry.fastArrived, "duplicate critical arrival");
    entry.fastArrived = true;
    entry.fastTick = now;
    entry.fastParityOk = parity_ok;

    if (!parity_ok) {
        // Paper Section 4.2.3: on parity error the data is forwarded only
        // after the ECC code arrives and the error has been corrected.
        stats_.parityBlockedWakes.inc();
        // Every parked load now waits on the bulk fragment.
        if (bulkMark_) {
            for (const auto &waiter : entry.waiters)
                bulkMark_(waiter.coreId, waiter.robSlot);
        }
        return;
    }

    // Wake every waiter whose requested word is the buffered one.  The
    // validator sees the state the wakes are about to be issued from.
    if (check_) [[unlikely]]
        check::earlyWake(entry.id, now, entry.fastArrived, entry.fastTick,
                         entry.fastParityOk);
    auto &waiters = entry.waiters;
    for (auto it = waiters.begin(); it != waiters.end();) {
        if (it->word == entry.storedCriticalWord) {
            if (wake_)
                wake_(it->coreId, it->robSlot, now);
            stats_.earlyWakes.inc();
            entry.earlyWoke = true;
            stats_.mshrWaitHist.sample(
                static_cast<double>(now - it->joinTick));
            HETSIM_TRACE_EVENT(trace::Event::EarlyWake, now, entry.id,
                               entry.lineAddr, it->coreId, 0, 0, it->word);
            it = waiters.erase(it);
        } else {
            // The fast word cannot serve this load: it now waits on the
            // bulk fragment (CPI-stack attribution).
            if (bulkMark_)
                bulkMark_(it->coreId, it->robSlot);
            ++it;
        }
    }

    if (!entry.isPrefetch &&
        entry.requestedWord == entry.storedCriticalWord) {
        stats_.servedByFast.inc();
        stats_.criticalWordLatency.sample(
            static_cast<double>(now - entry.allocTick));
        stats_.criticalWordLatencyHist.sample(
            static_cast<double>(now - entry.allocTick));
    }
}

void
Hierarchy::onLineCompleted(std::uint64_t mshr_id, Tick now)
{
    MshrEntry &entry = mshrs_.byId(mshr_id);
    sim_assert(!entry.slowArrived, "duplicate line completion");
    if (check_) [[unlikely]]
        check::lineComplete(entry.id, now,
                            entry.storedCriticalWord != MshrEntry::kNoFastWord,
                            entry.fastArrived, entry.fastTick);
    entry.slowArrived = true;
    entry.slowTick = now;
    HETSIM_TRACE_EVENT(trace::Event::LineComplete, now, entry.id,
                       entry.lineAddr, entry.allocCore, 0, 0,
                       entry.requestedWord);

    if (entry.storedCriticalWord != MshrEntry::kNoFastWord) {
        sim_assert(entry.fastArrived,
                   "line completed before its fast fragment");
        const double lead =
            static_cast<double>(entry.slowTick - entry.fastTick);
        stats_.fastLead.sample(lead);
        stats_.fastLeadHist.sample(lead);
        if (entry.earlyWoke)
            stats_.earlyWakeLeadHist.sample(lead);
    }
    if (!entry.isPrefetch) {
        stats_.missLatencyHist.sample(
            static_cast<double>(now - entry.allocTick));
    }

    // Latency of the requested word when it was NOT served early.
    const bool served_fast = entry.fastArrived && entry.fastParityOk &&
                             entry.requestedWord ==
                                 entry.storedCriticalWord;
    if (!entry.isPrefetch && !served_fast) {
        stats_.criticalWordLatency.sample(
            static_cast<double>(now - entry.allocTick));
        stats_.criticalWordLatencyHist.sample(
            static_cast<double>(now - entry.allocTick));
    }

    for (const auto &waiter : entry.waiters) {
        if (wake_)
            wake_(waiter.coreId, waiter.robSlot, now);
        stats_.mshrWaitHist.sample(
            static_cast<double>(now - waiter.joinTick));
    }
    entry.waiters.clear();

    if (entry.secondAccessTick != kTickNever) {
        stats_.secondAccessGap.sample(
            static_cast<double>(entry.secondAccessTick - entry.allocTick));
        if (entry.secondAccessTick < now)
            stats_.secondBeforeComplete.inc();
    }

    if (!entry.isPrefetch || entry.demandJoined)
        stats_.demandCompletions.inc();

    installLine(entry, now);
    mshrs_.release(entry);
}

void
Hierarchy::installLine(MshrEntry &entry, Tick now)
{
    (void)now;
    const Cache::Eviction ev = l2_.fill(entry.lineAddr,
                                        entry.writeAllocate);
    if (ev.valid) {
        bool dirty = ev.dirty;
        // Inclusive L2: purge the victim from every L1, folding dirty
        // data into the writeback.
        for (Cache &l1 : l1s_) {
            if (l1.invalidate(ev.lineAddr))
                dirty = true;
        }
        if (dirty)
            queueWriteback(ev.lineAddr);
    }

    // Install into the requester's L1 (prefetches stop at L2).
    if (!entry.isPrefetch)
        fillL1(entry.allocCore, entry.lineAddr, entry.writeAllocate);
}

void
Hierarchy::fillL1(std::uint8_t core, Addr line_addr, bool dirty)
{
    Cache &l1 = l1s_[core];
    if (l1.probe(line_addr)) {
        if (dirty)
            l1.access(line_addr, true);
        return;
    }
    const Cache::Eviction ev = l1.fill(line_addr, dirty);
    if (ev.valid && ev.dirty) {
        // Inclusive hierarchy: the victim must still be in L2.
        if (l2_.probe(ev.lineAddr)) {
            l2_.access(ev.lineAddr, /*mark_dirty=*/true);
        } else {
            queueWriteback(ev.lineAddr);
        }
    }
}

void
Hierarchy::queueWriteback(Addr line_addr)
{
    sim_assert(pendingWritebacks_.size() < 4096,
               "writeback queue runaway");
    pendingWritebacks_.push_back(line_addr);
}

void
Hierarchy::tick(Tick now)
{
    while (!pendingWritebacks_.empty() &&
           backend_.canAcceptWriteback(pendingWritebacks_.front())) {
        backend_.requestWriteback(pendingWritebacks_.front(), now);
        stats_.writebacks.inc();
        pendingWritebacks_.pop_front();
    }
}

double
Hierarchy::criticalWordFraction(unsigned w) const
{
    sim_assert(w < kWordsPerLine, "word index out of range");
    std::uint64_t total = 0;
    for (const auto &c : stats_.criticalWordHist)
        total += c.value();
    if (total == 0)
        return 0.0;
    return static_cast<double>(stats_.criticalWordHist[w].value()) /
           static_cast<double>(total);
}

void
Hierarchy::registerStats(StatRegistry &registry) const
{
    StatGroup &h = registry.group("cache/hierarchy");
    h.addCounter("loads", &stats_.loads);
    h.addCounter("stores", &stats_.stores);
    h.addCounter("demand_misses", &stats_.demandMisses);
    h.addCounter("demand_completions", &stats_.demandCompletions);
    h.addCounter("prefetch_issued", &stats_.prefetchIssued);
    h.addCounter("store_misses", &stats_.storeMisses);
    h.addCounter("mshr_joins", &stats_.mshrJoins);
    h.addCounter("blocked_accesses", &stats_.blockedAccesses);
    h.addCounter("served_by_fast", &stats_.servedByFast);
    h.addCounter("early_wakes", &stats_.earlyWakes);
    h.addCounter("parity_blocked_wakes", &stats_.parityBlockedWakes);
    h.addCounter("writebacks", &stats_.writebacks);
    h.addCounter("second_accesses", &stats_.secondAccesses);
    h.addCounter("second_before_complete", &stats_.secondBeforeComplete);
    h.addAverage("critical_word_latency_ticks",
                 &stats_.criticalWordLatency);
    h.addAverage("fast_lead_ticks", &stats_.fastLead);
    h.addAverage("second_access_gap_ticks", &stats_.secondAccessGap);
    h.addHistogram("critical_word_latency_ticks_hist",
                   &stats_.criticalWordLatencyHist);
    h.addHistogram("fast_lead_ticks_hist", &stats_.fastLeadHist);
    h.addHistogram("early_wake_lead_ticks", &stats_.earlyWakeLeadHist);
    h.addHistogram("miss_latency_ticks", &stats_.missLatencyHist);
    h.addHistogram("lookup_latency_ticks", &stats_.lookupLatencyHist);
    h.addHistogram("mshr_wait_ticks", &stats_.mshrWaitHist);
    h.addCounter("l2_hits", &l2_.hits());
    h.addCounter("l2_misses", &l2_.misses());

    StatGroup &m = registry.group("cache/mshr");
    m.addCounter("allocations", &mshrs_.allocations());
    m.addCounter("full_stalls", &mshrs_.fullStalls());
    m.addGauge("in_use",
               [this] { return static_cast<double>(mshrs_.inUse()); });
    m.addGauge("capacity",
               [this] { return static_cast<double>(mshrs_.capacity()); });
}

void
Hierarchy::resetStats()
{
    stats_ = HierStats{};
    for (Cache &l1 : l1s_)
        l1.resetStats();
    l2_.resetStats();
    mshrs_.resetStats();
    prefetcher_.resetStats();
    lineCriticality_.clear();
    pageCounts_.clear();
}

} // namespace hetsim::cache
