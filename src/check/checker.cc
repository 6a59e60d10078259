#include "check/checker.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "common/env.hh"
#include "common/log.hh"

namespace hetsim::check
{

namespace detail
{
std::atomic<bool> g_checkEnabled{false};
} // namespace detail

namespace
{
/** Collect-mode violation cap; beyond it only a counter advances so a
 *  badly broken run cannot OOM the checker. */
constexpr std::size_t kMaxViolations = 256;
} // namespace

const char *
toString(Rule rule)
{
    switch (rule) {
      case Rule::CycleAlign:
        return "cycle_align";
      case Rule::PowerState:
        return "power_state";
      case Rule::RefreshOverlap:
        return "refresh_overlap";
      case Rule::RefreshSpacing:
        return "refresh_spacing";
      case Rule::BankState:
        return "bank_state";
      case Rule::TRc:
        return "tRC";
      case Rule::TRcd:
        return "tRCD";
      case Rule::TCas:
        return "tCAS";
      case Rule::TRas:
        return "tRAS";
      case Rule::TRp:
        return "tRP";
      case Rule::TRrd:
        return "tRRD";
      case Rule::TFaw:
        return "tFAW";
      case Rule::TCcd:
        return "tCCD";
      case Rule::TWtr:
        return "tWTR";
      case Rule::TRtp:
        return "tRTP";
      case Rule::TWr:
        return "tWR";
      case Rule::BusOverlap:
        return "bus_overlap";
      case Rule::BusTurnaround:
        return "bus_turnaround";
      case Rule::CwfFragment:
        return "cwf_fragment";
      case Rule::CwfCompletion:
        return "cwf_completion";
      case Rule::EarlyWake:
        return "early_wake";
      case Rule::FastLead:
        return "fast_lead";
      case Rule::MshrLeak:
        return "mshr_leak";
      case Rule::L1HitMshr:
        return "l1_hit_mshr";
      case Rule::PhaseLedger:
        return "phase_ledger";
      case Rule::Fault:
        return "fault";
    }
    return "?";
}

Checker &
Checker::instance()
{
    static Checker checker;
    return checker;
}

namespace
{
// The hooks gate on g_checkEnabled without touching the singleton, so
// force construction (and environment configuration) before main().
[[maybe_unused]] const bool g_envConfigured = (Checker::instance(), true);
} // namespace

Checker::Checker()
{
    configureFromEnvironment();
}

void
Checker::configureFromEnvironment()
{
    if (!envFlag("HETSIM_CHECK", false))
        return;
    Mode mode = Mode::Abort;
    if (const char *m = std::getenv("HETSIM_CHECK_MODE"); m && *m) {
        if (!std::strcmp(m, "collect"))
            mode = Mode::Collect;
        else if (std::strcmp(m, "abort"))
            fatal("HETSIM_CHECK_MODE: expected abort|collect, got '", m,
                  "'");
    }
    enable(mode);
}

void
Checker::enable(Mode mode)
{
    std::lock_guard<std::mutex> lock(mutex_);
    mode_ = mode;
    clearState();
    detail::g_checkEnabled = true;
}

void
Checker::disable()
{
    std::lock_guard<std::mutex> lock(mutex_);
    detail::g_checkEnabled = false;
}

void
Checker::clearState()
{
    violations_.clear();
    suppressed_ = 0;
    channels_.clear();
    mshrLive_.clear();
    cwfLive_.clear();
    faultLive_.clear();
}

std::size_t
Checker::count(Rule rule) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t n = 0;
    for (const auto &v : violations_) {
        if (v.rule == rule)
            n += 1;
    }
    return n;
}

std::string
Checker::report() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream os;
    os << "protocol-check: " << violations_.size() << " violation(s)";
    if (suppressed_ > 0)
        os << " (+" << suppressed_ << " suppressed)";
    os << "\n";
    for (const auto &v : violations_) {
        os << "  [" << toString(v.rule) << "] tick " << v.tick << " "
           << v.where << ": " << v.message << "\n";
    }
    return os.str();
}

void
Checker::violate(Rule rule, Tick tick, std::string where,
                 std::string message)
{
    if (mode_ == Mode::Abort) {
        panic("protocol-check [", toString(rule), "] tick ", tick, " ",
              where, ": ", message);
    }
    if (violations_.size() >= kMaxViolations) {
        suppressed_ += 1;
        return;
    }
    violations_.push_back(
        Violation{rule, tick, std::move(where), std::move(message)});
}

// --------------------------------------------------------------------
// DRAM command stream
// --------------------------------------------------------------------

Checker::ChannelState &
Checker::stateFor(const void *chan, const std::string &name,
                  const dram::DeviceParams &params)
{
    ChannelState &cs = channels_[chan];
    if (cs.params == nullptr) {
        cs.name = name;
        cs.params = &params;
    }
    return cs;
}

namespace
{
std::string
place(const std::string &chan, unsigned rank, int bank = -1)
{
    std::string s = "channel " + chan + " rank " + std::to_string(rank);
    if (bank >= 0)
        s += " bank " + std::to_string(bank);
    return s;
}

std::string
lateBy(const char *what, Tick at, Tick earliest)
{
    return std::string(what) + " at " + std::to_string(at) +
           " before earliest legal tick " + std::to_string(earliest);
}
} // namespace

void
Checker::checkActivate(ChannelState &cs, RankState &rs, BankState &bs,
                       const std::string &where,
                       const dram::DeviceParams &p, Tick at)
{
    if (bs.lastAct != kTickNever && at < bs.lastAct + p.ticks(p.tRC))
        violate(Rule::TRc, at, where, lateBy("ACT", at, bs.lastAct + p.ticks(p.tRC)));
    if (bs.lastPre != kTickNever && p.tRP != 0 &&
        at < bs.lastPre + p.ticks(p.tRP)) {
        violate(Rule::TRp, at, where,
                lateBy("ACT", at, bs.lastPre + p.ticks(p.tRP)));
    }
    if (p.tRRD != 0 && rs.lastActAny != kTickNever &&
        at < rs.lastActAny + p.ticks(p.tRRD)) {
        violate(Rule::TRrd, at, where,
                lateBy("ACT", at, rs.lastActAny + p.ticks(p.tRRD)));
    }
    if (p.tFAW != 0 && rs.actCount >= 4) {
        const Tick fourth_ago = rs.acts[rs.actIdx];
        if (at < fourth_ago + p.ticks(p.tFAW)) {
            violate(Rule::TFaw, at, where,
                    "5th ACT at " + std::to_string(at) +
                        " inside the four-activate window (4th-previous "
                        "ACT at " +
                        std::to_string(fourth_ago) + ", tFAW " +
                        std::to_string(p.ticks(p.tFAW)) + " ticks)");
        }
    }
    // Commit the activate into the rank window.
    rs.acts[rs.actIdx] = at;
    rs.actIdx = (rs.actIdx + 1) % 4;
    rs.actCount += 1;
    rs.lastActAny = at;
    bs.lastAct = at;
    (void)cs;
}

void
Checker::checkColumnData(ChannelState &cs, RankState &rs,
                         const std::string &where,
                         const dram::DeviceParams &p, bool is_write,
                         Tick at, unsigned rank, Tick data_start,
                         Tick data_end)
{
    // Data-phase shape: CAS latency and burst occupancy.
    const Tick expect_start = at + p.ticks(is_write ? p.tWL : p.tRL);
    if (data_start != expect_start) {
        violate(Rule::TCas, at, where,
                std::string(is_write ? "write" : "read") +
                    " data starts at " + std::to_string(data_start) +
                    ", expected issue + t" + (is_write ? "WL" : "RL") +
                    " = " + std::to_string(expect_start));
    }
    if (data_end != data_start + p.ticks(p.tBurst)) {
        violate(Rule::TCas, at, where,
                "burst ends at " + std::to_string(data_end) +
                    ", expected " +
                    std::to_string(data_start + p.ticks(p.tBurst)));
    }

    // Shared data bus: occupancy and turnaround.
    if (cs.anyData) {
        if (data_start < cs.lastDataEnd) {
            violate(Rule::BusOverlap, at, where,
                    "data phase [" + std::to_string(data_start) + ", " +
                        std::to_string(data_end) +
                        ") overlaps previous transfer ending at " +
                        std::to_string(cs.lastDataEnd));
        }
        const bool rank_switch =
            cs.lastDataRank != static_cast<int>(rank);
        const bool dir_switch = cs.lastDataWasWrite != is_write;
        if ((rank_switch || dir_switch) &&
            data_start < cs.lastDataEnd + p.ticks(p.tRTRS)) {
            violate(Rule::BusTurnaround, at, where,
                    lateBy(rank_switch ? "rank-switch data"
                                       : "direction-switch data",
                           data_start, cs.lastDataEnd + p.ticks(p.tRTRS)));
        }
    }
    if (!is_write && p.tWTR != 0 &&
        at < rs.lastWriteDataEnd + p.ticks(p.tWTR)) {
        violate(Rule::TWtr, at, where,
                lateBy("read after write", at,
                       rs.lastWriteDataEnd + p.ticks(p.tWTR)));
    }

    cs.lastDataEnd = data_end;
    cs.lastDataRank = static_cast<int>(rank);
    cs.lastDataWasWrite = is_write;
    cs.anyData = true;
    if (is_write)
        rs.lastWriteDataEnd = std::max(rs.lastWriteDataEnd, data_end);
}

void
Checker::checkPrechargeRecovery(const BankState &bs,
                                const std::string &where,
                                const dram::DeviceParams &p, Tick at)
{
    if (bs.lastAct != kTickNever && at < bs.lastAct + p.ticks(p.tRAS))
        violate(Rule::TRas, at, where, lateBy("PRE", at, bs.lastAct + p.ticks(p.tRAS)));
    if (bs.lastReadCol != kTickNever &&
        at < bs.lastReadCol + p.ticks(p.tRTP)) {
        violate(Rule::TRtp, at, where,
                lateBy("PRE", at, bs.lastReadCol + p.ticks(p.tRTP)));
    }
    if (bs.lastWriteCol != kTickNever &&
        at < bs.lastWriteCol + p.ticks(p.tWL + p.tBurst + p.tWR)) {
        violate(Rule::TWr, at, where,
                lateBy("PRE", at,
                       bs.lastWriteCol +
                           p.ticks(p.tWL + p.tBurst + p.tWR)));
    }
}

void
Checker::dramCommand(const void *chan, const std::string &name,
                     const dram::DeviceParams &params, dram::DramCmd cmd,
                     Tick at, const dram::DramCoord &coord, Tick data_start,
                     Tick data_end)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ChannelState &cs = stateFor(chan, name, params);
    const dram::DeviceParams &p = params;
    const unsigned rank = coord.rank;
    const unsigned bank = coord.bank;

    // Memory-cycle grid: all commands share the phase established by the
    // first command (the controller acts on cycle boundaries only).
    if (cs.firstCmd == kTickNever) {
        cs.firstCmd = at;
    } else {
        if (at < cs.lastCmd) {
            violate(Rule::CycleAlign, at, place(cs.name, rank),
                    "command time went backwards (previous at " +
                        std::to_string(cs.lastCmd) + ")");
        }
        if ((at >= cs.firstCmd ? at - cs.firstCmd : cs.firstCmd - at) %
                p.clockDivider != 0) {
            violate(Rule::CycleAlign, at, place(cs.name, rank),
                    "command off the " + std::to_string(p.clockDivider) +
                        "-tick memory-cycle grid (phase reference " +
                        std::to_string(cs.firstCmd) + ")");
            cs.firstCmd = at; // re-base to avoid cascading reports
        }
    }
    cs.lastCmd = at;

    RankState &rs = cs.ranks[rank];
    const std::string rank_where = place(cs.name, rank);

    if (rs.poweredDown) {
        violate(Rule::PowerState, at, rank_where,
                std::string(dram::toString(cmd)) +
                    " issued to a powered-down rank");
    } else if (at < rs.wakeReady) {
        violate(Rule::PowerState, at, rank_where,
                lateBy(dram::toString(cmd), at, rs.wakeReady));
    }
    if (at < rs.refreshUntil) {
        violate(Rule::RefreshOverlap, at, rank_where,
                std::string(dram::toString(cmd)) +
                    " during refresh (tRFC runs until " +
                    std::to_string(rs.refreshUntil) + ")");
    }

    if (cmd == dram::DramCmd::Refresh) {
        // All-bank refresh: every open bank is implicitly precharged, so
        // each must satisfy precharge recovery now.
        if (p.tREFI != 0 && rs.lastRefreshStart != kTickNever) {
            // Catch-up scheduling keeps the long-run average at tREFI;
            // allow generous slack for transient blocking before
            // declaring the rank has fallen off its refresh schedule.
            const Tick bound = rs.lastRefreshStart +
                               4 * p.ticks(p.tREFI) + p.ticks(p.tRFC);
            if (at > bound) {
                violate(Rule::RefreshSpacing, at, rank_where,
                        "refresh gap " +
                            std::to_string(at - rs.lastRefreshStart) +
                            " ticks exceeds 4x tREFI + tRFC = " +
                            std::to_string(bound - rs.lastRefreshStart));
            }
        }
        for (auto &[key, bs] : cs.banks) {
            if (key.first != rank)
                continue;
            if (bs.open) {
                checkPrechargeRecovery(
                    bs, place(cs.name, rank, static_cast<int>(key.second)),
                    p, at);
            }
            bs.open = false;
            bs.lastPre = bs.lastPre == kTickNever ? at
                                                  : std::max(bs.lastPre, at);
        }
        rs.lastRefreshStart = at;
        rs.refreshUntil = at + p.ticks(p.tRFC);
        return;
    }

    BankState &bs = cs.banks[{rank, bank}];
    const std::string where = place(cs.name, rank, static_cast<int>(bank));

    switch (cmd) {
      case dram::DramCmd::Activate: {
        if (bs.open) {
            violate(Rule::BankState, at, where, "ACT to an open bank");
        }
        checkActivate(cs, rs, bs, where, p, at);
        bs.open = true;
        break;
      }
      case dram::DramCmd::Read:
      case dram::DramCmd::Write: {
        const bool is_write = cmd == dram::DramCmd::Write;
        if (!bs.open) {
            violate(Rule::BankState, at, where,
                    std::string(dram::toString(cmd)) + " to a closed bank");
        }
        if (bs.lastAct != kTickNever && at < bs.lastAct + p.ticks(p.tRCD)) {
            violate(Rule::TRcd, at, where,
                    lateBy(dram::toString(cmd), at,
                           bs.lastAct + p.ticks(p.tRCD)));
        }
        if (bs.lastCol != kTickNever && at < bs.lastCol + p.ticks(p.tCCD)) {
            violate(Rule::TCcd, at, where,
                    lateBy(dram::toString(cmd), at,
                           bs.lastCol + p.ticks(p.tCCD)));
        }
        checkColumnData(cs, rs, where, p, is_write, at, rank, data_start,
                        data_end);
        bs.lastCol = at;
        if (is_write)
            bs.lastWriteCol = at;
        else
            bs.lastReadCol = at;
        if (p.policy == dram::PagePolicy::Close) {
            // Auto-precharge folded into the column command: the bank
            // closes after read-to-precharge / write recovery.
            const unsigned recover =
                is_write ? p.tWL + p.tBurst + p.tWR : p.tRTP;
            const Tick pre_at = at + p.ticks(recover);
            bs.open = false;
            bs.lastPre = bs.lastPre == kTickNever
                             ? pre_at
                             : std::max(bs.lastPre, pre_at);
            bs.lastReadCol = kTickNever;
            bs.lastWriteCol = kTickNever;
        }
        break;
      }
      case dram::DramCmd::Precharge: {
        if (!bs.open)
            violate(Rule::BankState, at, where, "PRE to a closed bank");
        checkPrechargeRecovery(bs, where, p, at);
        bs.open = false;
        bs.lastPre = at;
        bs.lastReadCol = kTickNever;
        bs.lastWriteCol = kTickNever;
        break;
      }
      case dram::DramCmd::CompoundRead:
      case dram::DramCmd::CompoundWrite: {
        // RLDRAM-style single command: implicit activate + column +
        // auto-precharge; bank turns around in tRC.
        const bool is_write = cmd == dram::DramCmd::CompoundWrite;
        if (bs.open) {
            violate(Rule::BankState, at, where,
                    "compound access to a bank with an open row");
        }
        checkActivate(cs, rs, bs, where, p, at);
        checkColumnData(cs, rs, where, p, is_write, at, rank, data_start,
                        data_end);
        break;
      }
      case dram::DramCmd::Refresh:
        break; // handled above
    }
}

void
Checker::rankPowerDown(const void *chan, const std::string &name,
                       const dram::DeviceParams &params, unsigned rank,
                       Tick at)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ChannelState &cs = stateFor(chan, name, params);
    RankState &rs = cs.ranks[rank];
    if (rs.poweredDown) {
        violate(Rule::PowerState, at, place(cs.name, rank),
                "double power-down entry");
    }
    if (at < rs.refreshUntil) {
        violate(Rule::RefreshOverlap, at, place(cs.name, rank),
                "power-down entry during refresh");
    }
    // Precharge power-down: entry force-closes all rows, so open banks
    // must satisfy precharge recovery and take an implicit PRE stamp.
    for (auto &[key, bs] : cs.banks) {
        if (key.first != rank)
            continue;
        if (bs.open) {
            checkPrechargeRecovery(
                bs, place(cs.name, rank, static_cast<int>(key.second)),
                params, at);
        }
        bs.open = false;
        bs.lastPre =
            bs.lastPre == kTickNever ? at : std::max(bs.lastPre, at);
        bs.lastReadCol = kTickNever;
        bs.lastWriteCol = kTickNever;
    }
    rs.poweredDown = true;
    rs.wakeReady = at + params.ticks(params.tCKE);
}

void
Checker::rankWake(const void *chan, const std::string &name,
                  const dram::DeviceParams &params, unsigned rank, Tick at)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ChannelState &cs = stateFor(chan, name, params);
    RankState &rs = cs.ranks[rank];
    if (!rs.poweredDown) {
        violate(Rule::PowerState, at, place(cs.name, rank),
                "power-down exit while awake");
    }
    rs.poweredDown = false;
    rs.wakeReady = std::max(rs.wakeReady, at) + params.ticks(params.tXP);
}

void
Checker::channelDestroyed(const void *chan)
{
    std::lock_guard<std::mutex> lock(mutex_);
    channels_.erase(chan);
}

// --------------------------------------------------------------------
// MSHR lifecycle
// --------------------------------------------------------------------

namespace
{
template <typename Map>
void
eraseDomain(Map &map, const void *domain)
{
    auto it = map.lower_bound({domain, 0});
    while (it != map.end() && it->first.first == domain)
        it = map.erase(it);
}
} // namespace

void
Checker::mshrAlloc(const void *domain, std::uint64_t id, Tick at)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] = mshrLive_.emplace(
        std::make_pair(domain, id), at);
    if (!inserted) {
        violate(Rule::MshrLeak, at, "mshr " + std::to_string(id),
                "allocation of an already-live MSHR id");
    }
}

void
Checker::mshrRelease(const void *domain, std::uint64_t id, Tick at)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (mshrLive_.erase({domain, id}) == 0) {
        violate(Rule::MshrLeak, at, "mshr " + std::to_string(id),
                "release of an MSHR id that was never allocated");
    }
}

void
Checker::mshrDomainDestroyed(const void *domain)
{
    std::lock_guard<std::mutex> lock(mutex_);
    eraseDomain(mshrLive_, domain);
}

// --------------------------------------------------------------------
// CWF two-fragment fill protocol
// --------------------------------------------------------------------

void
Checker::cwfFillIssued(const void *domain, std::uint64_t id, Tick at)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] =
        cwfLive_.emplace(std::make_pair(domain, id), FillState{});
    if (!inserted) {
        violate(Rule::CwfFragment, at, "fill " + std::to_string(id),
                "fill re-issued while a fill with the same MSHR id is "
                "pending");
        return;
    }
    it->second.issued = at;
}

void
Checker::cwfFragment(const void *domain, std::uint64_t id, bool fast,
                     Tick at)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = cwfLive_.find({domain, id});
    if (it == cwfLive_.end()) {
        violate(Rule::CwfFragment, at, "fill " + std::to_string(id),
                std::string(fast ? "fast" : "slow") +
                    " fragment without a pending fill");
        return;
    }
    FillState &fill = it->second;
    Tick &slot = fast ? fill.fastTick : fill.slowTick;
    if (slot != kTickNever) {
        violate(Rule::CwfFragment, at, "fill " + std::to_string(id),
                std::string("duplicate ") + (fast ? "fast" : "slow") +
                    " fragment (first at " + std::to_string(slot) + ")");
        return;
    }
    slot = at;
}

void
Checker::cwfComplete(const void *domain, std::uint64_t id, Tick fast_tick,
                     Tick slow_tick, Tick done_tick)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = cwfLive_.find({domain, id});
    if (it == cwfLive_.end()) {
        violate(Rule::CwfFragment, done_tick,
                "fill " + std::to_string(id),
                "completion without a pending fill");
        return;
    }
    const FillState &fill = it->second;
    if (fill.fastTick == kTickNever || fill.slowTick == kTickNever) {
        violate(Rule::CwfCompletion, done_tick, "fill " + std::to_string(id),
                "completed before both fragments arrived");
    }
    if (done_tick != std::max(fast_tick, slow_tick)) {
        violate(Rule::CwfCompletion, done_tick, "fill " + std::to_string(id),
                "completion tick " + std::to_string(done_tick) +
                    " != max(fast " + std::to_string(fast_tick) +
                    ", slow " + std::to_string(slow_tick) + ")");
    }
    cwfLive_.erase(it);
}

void
Checker::cwfDomainDestroyed(const void *domain)
{
    std::lock_guard<std::mutex> lock(mutex_);
    eraseDomain(cwfLive_, domain);
}

// --------------------------------------------------------------------
// Hierarchy-side CWF invariants
// --------------------------------------------------------------------

void
Checker::earlyWake(std::uint64_t id, Tick at, bool fast_arrived,
                   Tick fast_tick, bool parity_ok)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const std::string where = "mshr " + std::to_string(id);
    if (!fast_arrived) {
        violate(Rule::EarlyWake, at, where,
                "early wake before the fast word arrived");
        return;
    }
    if (at < fast_tick) {
        violate(Rule::EarlyWake, at, where,
                "early wake at " + std::to_string(at) +
                    " precedes fast-word arrival at " +
                    std::to_string(fast_tick));
    }
    if (!parity_ok) {
        violate(Rule::EarlyWake, at, where,
                "early wake from a fast word that failed parity");
    }
}

void
Checker::lineComplete(std::uint64_t id, Tick at, bool has_fast,
                      bool fast_arrived, Tick fast_tick)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!has_fast)
        return;
    const std::string where = "mshr " + std::to_string(id);
    if (!fast_arrived) {
        violate(Rule::FastLead, at, where,
                "line completed before its fast fragment");
        return;
    }
    if (at < fast_tick) {
        violate(Rule::FastLead, at, where,
                "negative fast-word lead: completion at " +
                    std::to_string(at) + " precedes fast arrival at " +
                    std::to_string(fast_tick));
    }
}

void
Checker::l1Hit(Addr line, unsigned core, Tick at, bool mshr_live)
{
    if (!mshr_live)
        return; // stateless: only a violation needs the lock
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream where;
    where << "l1." << core << " line 0x" << std::hex << line;
    violate(Rule::L1HitMshr, at, where.str(),
            "L1 hit on a line with a live MSHR (the L1-first lookup "
            "skipped a join)");
}

// --------------------------------------------------------------------
// Latency-attribution phase ledger
// --------------------------------------------------------------------

void
Checker::phaseLedger(const std::string &name, const dram::MemRequest &req)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const std::string where =
        "channel " + name + " req " + std::to_string(req.id);
    const Tick at = req.complete == kTickNever ? req.enqueue : req.complete;

    // Stamp monotonicity: enqueue <= prepIssue <= columnIssue <=
    // dataStart <= complete for every stamp that was written.
    Tick prev = req.enqueue;
    const struct {
        const char *label;
        Tick tick;
    } stamps[] = {{"prepIssue", req.prepIssue},
                  {"columnIssue", req.columnIssue},
                  {"dataStart", req.dataStart},
                  {"complete", req.complete}};
    for (const auto &stamp : stamps) {
        if (stamp.tick == kTickNever)
            continue;
        if (stamp.tick < prev) {
            violate(Rule::PhaseLedger, at, where,
                    std::string(stamp.label) + " at " +
                        std::to_string(stamp.tick) +
                        " precedes an earlier phase stamp at " +
                        std::to_string(prev));
            return;
        }
        prev = stamp.tick;
    }

    // Partition: the four phases must tile [enqueue, complete] exactly.
    if (req.complete == kTickNever)
        return;
    const Tick sum = req.queuePhase() + req.prepPhase() + req.casPhase() +
                     req.busPhase();
    if (sum != req.totalLatency()) {
        violate(Rule::PhaseLedger, at, where,
                "phase sum " + std::to_string(sum) +
                    " != end-to-end latency " +
                    std::to_string(req.totalLatency()) + " (queue " +
                    std::to_string(req.queuePhase()) + " + prep " +
                    std::to_string(req.prepPhase()) + " + cas " +
                    std::to_string(req.casPhase()) + " + bus " +
                    std::to_string(req.busPhase()) + ")");
    }
}

// --------------------------------------------------------------------
// Fault-injection accounting
// --------------------------------------------------------------------

void
Checker::faultInjected(const void *domain, std::uint64_t fault_id,
                       Tick at)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] =
        faultLive_.emplace(std::make_pair(domain, fault_id), at);
    if (!inserted) {
        violate(Rule::Fault, at, "fault " + std::to_string(fault_id),
                "duplicate injection of fault id");
    }
}

void
Checker::faultResolved(const void *domain, std::uint64_t fault_id, Tick at)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (faultLive_.erase({domain, fault_id}) == 0) {
        violate(Rule::Fault, at, "fault " + std::to_string(fault_id),
                "resolution of a fault that is not live (double-resolve "
                "or never injected)");
    }
}

void
Checker::faultDomainDestroyed(const void *domain)
{
    std::lock_guard<std::mutex> lock(mutex_);
    eraseDomain(faultLive_, domain);
}

// --------------------------------------------------------------------
// End-of-run leak detection
// --------------------------------------------------------------------

void
Checker::finalizeAll()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[key, tick] : mshrLive_) {
        violate(Rule::MshrLeak, tick, "mshr " + std::to_string(key.second),
                "MSHR allocated at tick " + std::to_string(tick) +
                    " never released");
    }
    mshrLive_.clear();
    for (const auto &[key, fill] : cwfLive_) {
        violate(Rule::MshrLeak, fill.issued,
                "fill " + std::to_string(key.second),
                "CWF fill issued at tick " + std::to_string(fill.issued) +
                    " never completed");
    }
    cwfLive_.clear();
    for (const auto &[key, tick] : faultLive_) {
        violate(Rule::Fault, tick,
                "fault " + std::to_string(key.second),
                "fault injected at tick " + std::to_string(tick) +
                    " never resolved (the line never completed)");
    }
    faultLive_.clear();
}

} // namespace hetsim::check
