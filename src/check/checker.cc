#include "check/checker.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <mutex>
#include <sstream>

#include "common/env.hh"
#include "common/log.hh"

namespace hetsim::check
{

namespace
{
/** Collect-mode violation cap; beyond it only a counter advances so a
 *  badly broken run cannot OOM the log. */
constexpr std::size_t kMaxViolations = 256;

std::atomic<bool> g_armed{false};
std::atomic<Mode> g_mode{Mode::Abort};

/** The violation log: the one structure armed runs share. */
std::mutex g_logMutex;
std::vector<Violation> g_log;     ///< guarded by g_logMutex
std::uint64_t g_suppressed = 0;   ///< guarded by g_logMutex

void
armNow(Mode mode)
{
    std::lock_guard<std::mutex> lock(g_logMutex);
    g_log.clear();
    g_suppressed = 0;
    g_mode = mode;
    g_armed = true;
}

/** Apply the environment once, before the first query or override. */
void
configureOnce()
{
    static const bool configured = (configureFromEnvironment(), true);
    (void)configured;
}
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


void
configureFromEnvironment()
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
    armNow(mode);
}

void
arm(Mode mode)
{
    configureOnce();
    armNow(mode);
}

void
disarm()
{
    configureOnce();
    g_armed = false;
}

bool
armed()
{
    configureOnce();
    return g_armed.load(std::memory_order_relaxed);
}

namespace
{
// A malformed HETSIM_CHECK or HETSIM_CHECK_MODE stops the program before
// main, also when it never builds a checked component.
[[maybe_unused]] const bool g_envApplied = armed();
} // namespace

void
violate(Rule rule, Tick tick, std::string where, std::string message)
{
    if (g_mode == Mode::Abort) {
        panic("protocol-check [", toString(rule), "] tick ", tick, " ",
              where, ": ", message);
    }
    std::lock_guard<std::mutex> lock(g_logMutex);
    if (g_log.size() >= kMaxViolations) {
        g_suppressed += 1;
        return;
    }
    g_log.push_back(
        Violation{rule, tick, std::move(where), std::move(message)});
}

std::vector<Violation>
violations()
{
    std::lock_guard<std::mutex> lock(g_logMutex);
    return g_log;
}

std::size_t
count(Rule rule)
{
    std::lock_guard<std::mutex> lock(g_logMutex);
    return static_cast<std::size_t>(
        std::count_if(g_log.begin(), g_log.end(),
                      [rule](const Violation &v) { return v.rule == rule; }));
}

std::string
report()
{
    std::lock_guard<std::mutex> lock(g_logMutex);
    std::ostringstream os;
    os << "protocol-check: " << g_log.size() << " violation(s)";
    if (g_suppressed > 0)
        os << " (+" << g_suppressed << " suppressed)";
    os << "\n";
    for (const auto &v : g_log) {
        os << "  [" << toString(v.rule) << "] tick " << v.tick << " "
           << v.where << ": " << v.message << "\n";
    }
    return os.str();
}

int
collectExitStatus()
{
    if (!armed() || g_mode.load(std::memory_order_relaxed) != Mode::Collect)
        return 0;
    std::cerr << report();
    std::lock_guard<std::mutex> lock(g_logMutex);
    return g_log.empty() && g_suppressed == 0 ? 0 : 1;
}

namespace
{
std::string
lateBy(const char *what, Tick at, Tick earliest)
{
    return std::string(what) + " at " + std::to_string(at) +
           " before earliest legal tick " + std::to_string(earliest);
}
} // namespace

// --------------------------------------------------------------------
// DRAM command stream
// --------------------------------------------------------------------

ChannelCheck::ChannelCheck(std::string name,
                           const dram::DeviceParams &params, unsigned ranks)
    : name_(std::move(name)), p_(params), ranks_(ranks),
      banks_(static_cast<std::size_t>(ranks) * params.banksPerRank)
{
}

ChannelCheck::BankState &
ChannelCheck::bank(unsigned rank, unsigned bank)
{
    BankState &bs =
        banks_[static_cast<std::size_t>(rank) * p_.banksPerRank + bank];
    bs.touched = true;
    return bs;
}

void
ChannelCheck::fail(Rule rule, Tick at, unsigned rank, int bank,
                   std::string message) const
{
    std::string where = "channel " + name_ + " rank " + std::to_string(rank);
    if (bank >= 0)
        where += " bank " + std::to_string(bank);
    violate(rule, at, std::move(where), std::move(message));
}

void
ChannelCheck::checkActivate(RankState &rs, BankState &bs, unsigned rank,
                            unsigned bank, Tick at)
{
    const int b = static_cast<int>(bank);
    if (bs.lastAct != kTickNever && at < bs.lastAct + p_.ticks(p_.tRC))
        fail(Rule::TRc, at, rank, b,
             lateBy("ACT", at, bs.lastAct + p_.ticks(p_.tRC)));
    if (bs.lastPre != kTickNever && p_.tRP != 0 &&
        at < bs.lastPre + p_.ticks(p_.tRP)) {
        fail(Rule::TRp, at, rank, b,
             lateBy("ACT", at, bs.lastPre + p_.ticks(p_.tRP)));
    }
    if (p_.tRRD != 0 && rs.lastActAny != kTickNever &&
        at < rs.lastActAny + p_.ticks(p_.tRRD)) {
        fail(Rule::TRrd, at, rank, b,
             lateBy("ACT", at, rs.lastActAny + p_.ticks(p_.tRRD)));
    }
    if (p_.tFAW != 0 && rs.actCount >= 4) {
        const Tick fourth_ago = rs.acts[rs.actIdx];
        if (at < fourth_ago + p_.ticks(p_.tFAW)) {
            fail(Rule::TFaw, at, rank, b,
                 "5th ACT at " + std::to_string(at) +
                     " inside the four-activate window (4th-previous "
                     "ACT at " +
                     std::to_string(fourth_ago) + ", tFAW " +
                     std::to_string(p_.ticks(p_.tFAW)) + " ticks)");
        }
    }
    // Commit the activate into the rank window.
    rs.acts[rs.actIdx] = at;
    rs.actIdx = (rs.actIdx + 1) % 4;
    rs.actCount += 1;
    rs.lastActAny = at;
    bs.lastAct = at;
}

void
ChannelCheck::checkColumnData(RankState &rs, unsigned rank, unsigned bank,
                              bool is_write, Tick at, Tick data_start,
                              Tick data_end)
{
    const int b = static_cast<int>(bank);
    // Data-phase shape: CAS latency and burst occupancy.
    const Tick expect_start = at + p_.ticks(is_write ? p_.tWL : p_.tRL);
    if (data_start != expect_start) {
        fail(Rule::TCas, at, rank, b,
             std::string(is_write ? "write" : "read") +
                 " data starts at " + std::to_string(data_start) +
                 ", expected issue + t" + (is_write ? "WL" : "RL") +
                 " = " + std::to_string(expect_start));
    }
    if (data_end != data_start + p_.ticks(p_.tBurst)) {
        fail(Rule::TCas, at, rank, b,
             "burst ends at " + std::to_string(data_end) + ", expected " +
                 std::to_string(data_start + p_.ticks(p_.tBurst)));
    }

    // Shared data bus: occupancy and turnaround.
    if (anyData_) {
        if (data_start < lastDataEnd_) {
            fail(Rule::BusOverlap, at, rank, b,
                 "data phase [" + std::to_string(data_start) + ", " +
                     std::to_string(data_end) +
                     ") overlaps previous transfer ending at " +
                     std::to_string(lastDataEnd_));
        }
        const bool rank_switch = lastDataRank_ != static_cast<int>(rank);
        const bool dir_switch = lastDataWasWrite_ != is_write;
        if ((rank_switch || dir_switch) &&
            data_start < lastDataEnd_ + p_.ticks(p_.tRTRS)) {
            fail(Rule::BusTurnaround, at, rank, b,
                 lateBy(rank_switch ? "rank-switch data"
                                    : "direction-switch data",
                        data_start, lastDataEnd_ + p_.ticks(p_.tRTRS)));
        }
    }
    if (!is_write && p_.tWTR != 0 &&
        at < rs.lastWriteDataEnd + p_.ticks(p_.tWTR)) {
        fail(Rule::TWtr, at, rank, b,
             lateBy("read after write", at,
                    rs.lastWriteDataEnd + p_.ticks(p_.tWTR)));
    }

    lastDataEnd_ = data_end;
    lastDataRank_ = static_cast<int>(rank);
    lastDataWasWrite_ = is_write;
    anyData_ = true;
    if (is_write)
        rs.lastWriteDataEnd = std::max(rs.lastWriteDataEnd, data_end);
}

void
ChannelCheck::checkPrechargeRecovery(const BankState &bs, unsigned rank,
                                     unsigned bank, Tick at) const
{
    const int b = static_cast<int>(bank);
    if (bs.lastAct != kTickNever && at < bs.lastAct + p_.ticks(p_.tRAS))
        fail(Rule::TRas, at, rank, b,
             lateBy("PRE", at, bs.lastAct + p_.ticks(p_.tRAS)));
    if (bs.lastReadCol != kTickNever &&
        at < bs.lastReadCol + p_.ticks(p_.tRTP)) {
        fail(Rule::TRtp, at, rank, b,
             lateBy("PRE", at, bs.lastReadCol + p_.ticks(p_.tRTP)));
    }
    if (bs.lastWriteCol != kTickNever &&
        at < bs.lastWriteCol + p_.ticks(p_.tWL + p_.tBurst + p_.tWR)) {
        fail(Rule::TWr, at, rank, b,
             lateBy("PRE", at,
                    bs.lastWriteCol + p_.ticks(p_.tWL + p_.tBurst + p_.tWR)));
    }
}

void
ChannelCheck::closeRank(unsigned rank, Tick at)
{
    for (unsigned b = 0; b < p_.banksPerRank; ++b) {
        BankState &bs =
            banks_[static_cast<std::size_t>(rank) * p_.banksPerRank + b];
        if (!bs.touched)
            continue;
        if (bs.open)
            checkPrechargeRecovery(bs, rank, b, at);
        bs.open = false;
        bs.lastPre = bs.lastPre == kTickNever ? at : std::max(bs.lastPre, at);
    }
}

void
ChannelCheck::command(dram::DramCmd cmd, Tick at,
                      const dram::DramCoord &coord, Tick data_start,
                      Tick data_end)
{
    const unsigned rank = coord.rank;
    const unsigned b = coord.bank;

    // Memory-cycle grid: all commands share the phase established by the
    // first command (the controller acts on cycle boundaries only).
    if (firstCmd_ == kTickNever) {
        firstCmd_ = at;
    } else {
        if (at < lastCmd_) {
            fail(Rule::CycleAlign, at, rank, -1,
                 "command time went backwards (previous at " +
                     std::to_string(lastCmd_) + ")");
        }
        if ((at >= firstCmd_ ? at - firstCmd_ : firstCmd_ - at) %
                p_.clockDivider != 0) {
            fail(Rule::CycleAlign, at, rank, -1,
                 "command off the " + std::to_string(p_.clockDivider) +
                     "-tick memory-cycle grid (phase reference " +
                     std::to_string(firstCmd_) + ")");
            firstCmd_ = at; // re-base to avoid cascading reports
        }
    }
    lastCmd_ = at;

    RankState &rs = ranks_[rank];
    if (rs.poweredDown) {
        fail(Rule::PowerState, at, rank, -1,
             std::string(dram::toString(cmd)) +
                 " issued to a powered-down rank");
    } else if (at < rs.wakeReady) {
        fail(Rule::PowerState, at, rank, -1,
             lateBy(dram::toString(cmd), at, rs.wakeReady));
    }
    if (at < rs.refreshUntil) {
        fail(Rule::RefreshOverlap, at, rank, -1,
             std::string(dram::toString(cmd)) +
                 " during refresh (tRFC runs until " +
                 std::to_string(rs.refreshUntil) + ")");
    }

    if (cmd == dram::DramCmd::Refresh) {
        if (p_.tREFI != 0 && rs.lastRefreshStart != kTickNever) {
            // Catch-up scheduling keeps the long-run average at tREFI;
            // allow generous slack for transient blocking before
            // declaring the rank has fallen off its refresh schedule.
            const Tick bound = rs.lastRefreshStart +
                               4 * p_.ticks(p_.tREFI) + p_.ticks(p_.tRFC);
            if (at > bound) {
                fail(Rule::RefreshSpacing, at, rank, -1,
                     "refresh gap " +
                         std::to_string(at - rs.lastRefreshStart) +
                         " ticks exceeds 4x tREFI + tRFC = " +
                         std::to_string(bound - rs.lastRefreshStart));
            }
        }
        // All-bank refresh: every open bank is implicitly precharged, so
        // each must satisfy precharge recovery now.
        closeRank(rank, at);
        rs.lastRefreshStart = at;
        rs.refreshUntil = at + p_.ticks(p_.tRFC);
        return;
    }

    BankState &bs = bank(rank, b);
    const int where_bank = static_cast<int>(b);

    switch (cmd) {
      case dram::DramCmd::Activate: {
        if (bs.open)
            fail(Rule::BankState, at, rank, where_bank, "ACT to an open bank");
        checkActivate(rs, bs, rank, b, at);
        bs.open = true;
        break;
      }
      case dram::DramCmd::Read:
      case dram::DramCmd::Write: {
        const bool is_write = cmd == dram::DramCmd::Write;
        if (!bs.open) {
            fail(Rule::BankState, at, rank, where_bank,
                 std::string(dram::toString(cmd)) + " to a closed bank");
        }
        if (bs.lastAct != kTickNever && at < bs.lastAct + p_.ticks(p_.tRCD)) {
            fail(Rule::TRcd, at, rank, where_bank,
                 lateBy(dram::toString(cmd), at,
                        bs.lastAct + p_.ticks(p_.tRCD)));
        }
        if (bs.lastCol != kTickNever && at < bs.lastCol + p_.ticks(p_.tCCD)) {
            fail(Rule::TCcd, at, rank, where_bank,
                 lateBy(dram::toString(cmd), at,
                        bs.lastCol + p_.ticks(p_.tCCD)));
        }
        checkColumnData(rs, rank, b, is_write, at, data_start, data_end);
        bs.lastCol = at;
        if (is_write)
            bs.lastWriteCol = at;
        else
            bs.lastReadCol = at;
        if (p_.policy == dram::PagePolicy::Close) {
            // Auto-precharge folded into the column command: the bank
            // closes after read-to-precharge / write recovery.
            const unsigned recover =
                is_write ? p_.tWL + p_.tBurst + p_.tWR : p_.tRTP;
            const Tick pre_at = at + p_.ticks(recover);
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
            fail(Rule::BankState, at, rank, where_bank, "PRE to a closed bank");
        checkPrechargeRecovery(bs, rank, b, at);
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
            fail(Rule::BankState, at, rank, where_bank,
                 "compound access to a bank with an open row");
        }
        checkActivate(rs, bs, rank, b, at);
        checkColumnData(rs, rank, b, is_write, at, data_start, data_end);
        break;
      }
      case dram::DramCmd::Refresh:
        break; // handled above
    }
}

void
ChannelCheck::powerDown(unsigned rank, Tick at)
{
    RankState &rs = ranks_[rank];
    if (rs.poweredDown)
        fail(Rule::PowerState, at, rank, -1, "double power-down entry");
    if (at < rs.refreshUntil)
        fail(Rule::RefreshOverlap, at, rank, -1,
             "power-down entry during refresh");
    // Precharge power-down: entry force-closes all rows, so open banks
    // must satisfy precharge recovery and take an implicit PRE stamp.
    closeRank(rank, at);
    for (unsigned b = 0; b < p_.banksPerRank; ++b) {
        BankState &bs =
            banks_[static_cast<std::size_t>(rank) * p_.banksPerRank + b];
        bs.lastReadCol = kTickNever;
        bs.lastWriteCol = kTickNever;
    }
    rs.poweredDown = true;
    rs.wakeReady = at + p_.ticks(p_.tCKE);
}

void
ChannelCheck::wake(unsigned rank, Tick at)
{
    RankState &rs = ranks_[rank];
    if (!rs.poweredDown)
        fail(Rule::PowerState, at, rank, -1, "power-down exit while awake");
    rs.poweredDown = false;
    rs.wakeReady = std::max(rs.wakeReady, at) + p_.ticks(p_.tXP);
}

// --------------------------------------------------------------------
// Live-id sets: MSHR lifecycle and fault-injection accounting
// --------------------------------------------------------------------

void
LiveIds::fail(std::uint64_t id, Tick at, std::string message) const
{
    const bool mshr = kind_ == Kind::Mshr;
    violate(mshr ? Rule::MshrLeak : Rule::Fault, at,
            (mshr ? "mshr " : "fault ") + std::to_string(id),
            std::move(message));
}

void
LiveIds::add(std::uint64_t id, Tick at)
{
    if (!live_.emplace(id, at).second) {
        fail(id, at,
             kind_ == Kind::Mshr ? "allocation of an already-live MSHR id"
                                 : "duplicate injection of fault id");
    }
}

void
LiveIds::remove(std::uint64_t id, Tick at)
{
    if (live_.erase(id) == 0) {
        fail(id, at,
             kind_ == Kind::Mshr
                 ? "release of an MSHR id that was never allocated"
                 : "resolution of a fault that is not live (double-resolve "
                   "or never injected)");
    }
}

void
LiveIds::drain()
{
    for (const auto &[id, tick] : live_) {
        if (kind_ == Kind::Mshr) {
            fail(id, tick,
                 "MSHR allocated at tick " + std::to_string(tick) +
                     " never released");
        } else {
            fail(id, tick,
                 "fault injected at tick " + std::to_string(tick) +
                     " never resolved (the line never completed)");
        }
    }
    live_.clear();
}

// --------------------------------------------------------------------
// CWF two-fragment fill protocol
// --------------------------------------------------------------------

void
FillCheck::issued(std::uint64_t id, Tick at)
{
    const auto [it, inserted] = live_.emplace(id, FillState{});
    if (!inserted) {
        violate(Rule::CwfFragment, at, "fill " + std::to_string(id),
                "fill re-issued while a fill with the same MSHR id is "
                "pending");
        return;
    }
    it->second.issued = at;
}

void
FillCheck::fragment(std::uint64_t id, bool fast, Tick at)
{
    const auto it = live_.find(id);
    if (it == live_.end()) {
        violate(Rule::CwfFragment, at, "fill " + std::to_string(id),
                std::string(fast ? "fast" : "slow") +
                    " fragment without a pending fill");
        return;
    }
    Tick &slot = fast ? it->second.fastTick : it->second.slowTick;
    if (slot != kTickNever) {
        violate(Rule::CwfFragment, at, "fill " + std::to_string(id),
                std::string("duplicate ") + (fast ? "fast" : "slow") +
                    " fragment (first at " + std::to_string(slot) + ")");
        return;
    }
    slot = at;
}

void
FillCheck::complete(std::uint64_t id, Tick fast_tick, Tick slow_tick,
                    Tick done_tick)
{
    const auto it = live_.find(id);
    if (it == live_.end()) {
        violate(Rule::CwfFragment, done_tick, "fill " + std::to_string(id),
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
    live_.erase(it);
}

void
FillCheck::drain()
{
    for (const auto &[id, fill] : live_) {
        violate(Rule::MshrLeak, fill.issued, "fill " + std::to_string(id),
                "CWF fill issued at tick " + std::to_string(fill.issued) +
                    " never completed");
    }
    live_.clear();
}

// --------------------------------------------------------------------
// Stateless rules
// --------------------------------------------------------------------

void
earlyWake(std::uint64_t id, Tick at, bool fast_arrived, Tick fast_tick,
          bool parity_ok)
{
    const auto where = [id] { return "mshr " + std::to_string(id); };
    if (!fast_arrived) {
        violate(Rule::EarlyWake, at, where(),
                "early wake before the fast word arrived");
        return;
    }
    if (at < fast_tick) {
        violate(Rule::EarlyWake, at, where(),
                "early wake at " + std::to_string(at) +
                    " precedes fast-word arrival at " +
                    std::to_string(fast_tick));
    }
    if (!parity_ok) {
        violate(Rule::EarlyWake, at, where(),
                "early wake from a fast word that failed parity");
    }
}

void
lineComplete(std::uint64_t id, Tick at, bool has_fast, bool fast_arrived,
             Tick fast_tick)
{
    if (!has_fast)
        return;
    if (!fast_arrived) {
        violate(Rule::FastLead, at, "mshr " + std::to_string(id),
                "line completed before its fast fragment");
        return;
    }
    if (at < fast_tick) {
        violate(Rule::FastLead, at, "mshr " + std::to_string(id),
                "negative fast-word lead: completion at " +
                    std::to_string(at) + " precedes fast arrival at " +
                    std::to_string(fast_tick));
    }
}

void
l1Hit(Addr line, unsigned core, Tick at, bool mshr_live)
{
    if (!mshr_live)
        return;
    std::ostringstream where;
    where << "l1." << core << " line 0x" << std::hex << line;
    violate(Rule::L1HitMshr, at, where.str(),
            "L1 hit on a line with a live MSHR (the L1-first lookup "
            "skipped a join)");
}

void
phaseLedger(const std::string &channel, const dram::MemRequest &req)
{
    const auto where = [&] {
        return "channel " + channel + " req " + std::to_string(req.id);
    };
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
            violate(Rule::PhaseLedger, at, where(),
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
        violate(Rule::PhaseLedger, at, where(),
                "phase sum " + std::to_string(sum) +
                    " != end-to-end latency " +
                    std::to_string(req.totalLatency()) + " (queue " +
                    std::to_string(req.queuePhase()) + " + prep " +
                    std::to_string(req.prepPhase()) + " + cas " +
                    std::to_string(req.casPhase()) + " + bus " +
                    std::to_string(req.busPhase()) + ")");
    }
}

} // namespace hetsim::check
