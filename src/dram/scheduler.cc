/**
 * @file
 * FR-FCFS command scheduling for Channel (paper Section 5): row-buffer
 * hits first, then oldest-first preparation commands; demand requests are
 * prioritised over prefetches unless a prefetch has aged past the
 * promotion threshold; writes are serviced in drained batches governed by
 * the high/low watermarks.
 */

#include "common/log.hh"
#include "common/trace.hh"
#include "dram/channel.hh"

namespace hetsim::dram
{

void
Channel::scheduleCommand(Tick now)
{
    if (draining_ && !writeQ_.empty())
        tryIssueFrom(writeQ_, /*is_write_queue=*/true, now);
    else if (!readQ_.empty())
        tryIssueFrom(readQ_, /*is_write_queue=*/false, now);
}

void
Channel::retireIssued(std::vector<ReqPtr> &queue, std::size_t idx,
                      bool is_write_queue)
{
    MemRequest &req = *queue[idx];
    pendingPerRank_[req.coord.rank] -= 1;
    if (is_write_queue) {
        auto it = pendingWriteLines_.find(forwardKey(req));
        sim_assert(it != pendingWriteLines_.end() && it->second > 0,
                   name_, ": write-forward index out of sync");
        if (--it->second == 0)
            pendingWriteLines_.erase(it);
    }
    if (req.isRead())
        inflight_.push(std::move(queue[idx]));
    else
        stats_.writes.inc();
    // The scan order is the queue order, so the erase keeps it.
    queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(idx));
}

bool
Channel::tryIssueFrom(std::vector<ReqPtr> &queue, bool is_write_queue,
                      Tick now)
{
    // Priority class 0: demands and promoted (aged) prefetches; class 1:
    // young prefetches.  Writes are all class 0.
    auto klass = [&](const MemRequest &req) {
        if (is_write_queue || req.isDemand())
            return 0;
        return now - req.enqueue >= policy_.prefetchPromoteAge ? 0 : 1;
    };

    for (int cls = 0; cls < 2; ++cls) {
        // Pass 1: column-ready requests (row hits / ready RLDRAM banks),
        // oldest first.
        for (std::size_t i = 0; i < queue.size(); ++i) {
            MemRequest &req = *queue[i];
            if (klass(req) != cls)
                continue;
            Rank &rank = ranks_[req.coord.rank];
            if (rank.poweredDown()) {
                wakeIfNeeded(req, now);
                continue;
            }
            if (!rankAvailable(rank, now))
                continue;
            if (!tryColumn(req, now, /*commit=*/false))
                continue;
            if (sharedCmdBus_ && !sharedCmdBus_->tryReserve(now))
                return false;
            const bool ok = tryColumn(req, now, /*commit=*/true);
            sim_assert(ok, "column commit failed after successful check");
            retireIssued(queue, i, is_write_queue);
            return true;
        }

        // Pass 2: preparation commands (PRECHARGE/ACTIVATE), oldest
        // first, with only the oldest request per bank allowed to steer
        // that bank (prevents younger requests from closing rows older
        // ones still need).
        std::uint64_t visited_banks = 0;
        for (std::size_t i = 0; i < queue.size(); ++i) {
            MemRequest &req = *queue[i];
            if (klass(req) != cls)
                continue;
            const unsigned bank_id =
                req.coord.rank * params_.banksPerRank + req.coord.bank;
            sim_assert(bank_id < 64, "bank id overflows visited set");
            const std::uint64_t bit = 1ULL << bank_id;
            if (visited_banks & bit)
                continue;
            visited_banks |= bit;
            Rank &rank = ranks_[req.coord.rank];
            if (rank.poweredDown()) {
                wakeIfNeeded(req, now);
                continue;
            }
            if (!rankAvailable(rank, now))
                continue;
            if (tryPrep(req, now))
                return true;
        }
    }
    return false;
}

bool
Channel::tryColumn(MemRequest &req, Tick now, bool commit)
{
    Rank &rank = ranks_[req.coord.rank];
    Bank &bank = rank.banks[req.coord.bank];
    const bool is_read = req.isRead();
    const Tick data_start =
        now + params_.ticks(is_read ? params_.tRL : params_.tWL);

    // Shared data-bus constraints.
    if (data_start < dataBusFreeAt_)
        return false;
    if (lastDataRank_ >= 0 &&
        lastDataRank_ != static_cast<int>(req.coord.rank) &&
        data_start < lastDataEnd_ + params_.ticks(params_.tRTRS)) {
        return false;
    }
    if (is_read) {
        // Write-to-read turnaround within the rank.
        if (now < lastWriteDataEnd_[req.coord.rank] +
                      params_.ticks(params_.tWTR)) {
            return false;
        }
        if (lastDataWasWrite_ &&
            data_start < lastDataEnd_ + params_.ticks(params_.tRTRS)) {
            return false;
        }
    } else {
        // Read-to-write bus switch.
        if (!lastDataWasWrite_ && lastDataEnd_ > 0 &&
            data_start < lastDataEnd_ + params_.ticks(params_.tRTRS)) {
            return false;
        }
    }

    if (params_.tRCD == 0) {
        // RLDRAM compound access: implicit activate + column + auto-pre.
        if (now < bank.nextActivate || bank.isOpen())
            return false;
        if (params_.tFAW != 0 && !rank.fawAllows(now))
            return false;
        if (!rank.rrdAllows(now))
            return false;
        if (!commit)
            return true;
        bank.compoundAccess(now, params_, !is_read);
        rank.recordActivate(now); // moves rank tRRD/tFAW state
        stats_.rowMisses.inc(); // close page: every access opens a row
        finishColumnIssue(req, now, data_start);
        recordAudit(is_read ? DramCmd::CompoundRead : DramCmd::CompoundWrite,
                    now, req.coord, data_start,
                    data_start + params_.ticks(params_.tBurst));
        return true;
    }

    // Conventional column command: the right row must already be open.
    if (!bank.isOpen() ||
        bank.openRow != static_cast<std::int64_t>(req.coord.row)) {
        return false;
    }
    if (!bank.canColumn(now))
        return false;
    if (!commit)
        return true;

    if (is_read)
        bank.read(now, params_);
    else
        bank.write(now, params_);

    if (params_.policy == PagePolicy::Close) {
        // Auto-precharge folded into the column command.
        const unsigned recover =
            is_read ? params_.tRTP
                    : params_.tWL + params_.tBurst + params_.tWR;
        bank.autoPrecharge(now + params_.ticks(recover) +
                           params_.ticks(params_.tRP));
    }

    if (req.neededActivate)
        stats_.rowMisses.inc();
    else
        stats_.rowHits.inc();

    finishColumnIssue(req, now, data_start);
    recordAudit(is_read ? DramCmd::Read : DramCmd::Write, now, req.coord,
                data_start, data_start + params_.ticks(params_.tBurst));
    return true;
}

bool
Channel::tryPrep(MemRequest &req, Tick now)
{
    if (params_.tRCD == 0)
        return false; // compound devices need no preparation
    Rank &rank = ranks_[req.coord.rank];
    Bank &bank = rank.banks[req.coord.bank];

    if (bank.isOpen()) {
        if (bank.openRow == static_cast<std::int64_t>(req.coord.row))
            return false; // just waiting on column/bus timing
        if (!bank.canPrecharge(now))
            return false;
        if (sharedCmdBus_ && !sharedCmdBus_->tryReserve(now))
            return false;
        bank.precharge(now, params_);
        rank.lastCommand = now;
        if (req.prepIssue == kTickNever)
            req.prepIssue = now;
        recordAudit(DramCmd::Precharge, now, req.coord, 0, 0);
        return true;
    }

    if (!bank.canActivate(now))
        return false;
    if (!rank.fawAllows(now))
        return false;
    if (!rank.rrdAllows(now))
        return false;
    if (sharedCmdBus_ && !sharedCmdBus_->tryReserve(now))
        return false;
    bank.activate(now, static_cast<std::int64_t>(req.coord.row), params_);
    rank.recordActivate(now);
    req.neededActivate = true;
    if (req.prepIssue == kTickNever)
        req.prepIssue = now;
    HETSIM_TRACE_EVENT(trace::Event::BankAct, now, req.cookie,
                       req.lineAddr, req.coreId, req.coord.channel,
                       req.part, req.coord.bank);
    recordAudit(DramCmd::Activate, now, req.coord, 0, 0);
    return true;
}

} // namespace hetsim::dram
