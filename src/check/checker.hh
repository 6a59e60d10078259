/**
 * @file
 * Runtime DRAM protocol validator: an independent re-derivation of the
 * JEDEC-style timing rules and model invariants the simulator claims to
 * enforce, checked against the observed command/event stream.
 *
 * Two invariant families are covered:
 *
 *  1. DRAM command legality per bank/rank/channel, parameterized from the
 *     channel's own DeviceParams so one checker validates DDR3, LPDDR2
 *     and RLDRAM3 alike: tRC, tRCD, tCAS (read data must trail the
 *     column command by exactly tRL), tRAS, tRP, tRRD, the tFAW sliding
 *     window, tCCD, tWTR, tRTP/tWR precharge recovery, data-bus
 *     occupancy/collision and rank-turnaround (tRTRS), refresh
 *     overlap/spacing, and power-down exit latency (tXP).
 *
 *  2. Model/CWF invariants: early wake never precedes the fast-word
 *     arrival (and never fires on a parity failure), a line never
 *     completes before its fast fragment, fast-word lead is
 *     non-negative, a CWF line completes only after both of its
 *     fragments, fragments never duplicate, no L1 hit lands on a line
 *     with a live MSHR, and every MSHR allocation is eventually drained
 *     (leak detection via each owner's checkDrained()).
 *
 * Each rule's state lives in the component it checks: a dram::Channel
 * owns a ChannelCheck, a cache::MshrFile and a fault::FaultModel own
 * LiveIds, a cwf::CwfHeteroMemory owns a FillCheck.  A component builds
 * its check at construction iff the process is armed() and holds a null
 * pointer otherwise, so an unarmed hook is one not-taken branch on a
 * member and an armed one touches no shared state.  The stateless rules
 * are free functions.  The one process-wide structure is the violation
 * log, locked only on the path that records a violation.
 *
 *   HETSIM_CHECK=1           arm (abort mode: first violation panics
 *                            with a structured report); takes
 *                            0|1|false|true|off|on, anything else is fatal
 *   HETSIM_CHECK_MODE=collect  record violations instead of aborting
 *                            (abort|collect; anything else is fatal)
 *
 * Violations carry the event context (tick, channel, rank, bank, rule)
 * so a failing run points at the offending command, not just a stat.
 */

#ifndef HETSIM_CHECK_CHECKER_HH
#define HETSIM_CHECK_CHECKER_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.hh"
#include "dram/channel.hh"
#include "dram/dram_params.hh"
#include "dram/request.hh"

namespace hetsim::check
{

/** Invariant catalogue; see DESIGN.md section 9 for the full listing. */
enum class Rule : std::uint8_t {
    CycleAlign,      ///< command off the memory-cycle grid
    PowerState,      ///< command to a powered-down rank / pre-tXP
    RefreshOverlap,  ///< command (or second REF) during tRFC
    RefreshSpacing,  ///< rank fell behind its tREFI schedule
    BankState,       ///< ACT to open bank / column or PRE to closed bank
    TRc,             ///< activate-to-activate, same bank
    TRcd,            ///< activate-to-column
    TCas,            ///< data phase not exactly tRL/tWL/tBurst shaped
    TRas,            ///< precharge before minimum row-open time
    TRp,             ///< activate before precharge period elapsed
    TRrd,            ///< activate-to-activate, same rank
    TFaw,            ///< fifth activate inside the four-activate window
    TCcd,            ///< column-to-column, same bank
    TWtr,            ///< read issued inside write-to-read turnaround
    TRtp,            ///< precharge before read-to-precharge elapsed
    TWr,             ///< precharge before write recovery elapsed
    BusOverlap,      ///< overlapping data-bus transfers
    BusTurnaround,   ///< missing tRTRS gap on rank/direction switch
    CwfFragment,     ///< duplicate/orphaned CWF fragment
    CwfCompletion,   ///< completion tick != max(fast, slow)
    EarlyWake,       ///< wake before fast-word arrival or on bad parity
    FastLead,        ///< line completed before fast fragment / negative lead
    MshrLeak,        ///< MSHR entry never drained (checkDrained)
    L1HitMshr,       ///< L1 hit on a line with a live MSHR
    PhaseLedger,     ///< phase ledger does not partition [enqueue, complete]
    Fault,           ///< injected fault never resolved / double-resolved
};

const char *toString(Rule rule);

/** One recorded invariant violation, with event context. */
struct Violation
{
    Rule rule = Rule::CycleAlign;
    Tick tick = 0;
    std::string where;   ///< component ("channel ddr3.0 rank 1 bank 3")
    std::string message; ///< human-readable detail with the numbers
};

enum class Mode : std::uint8_t {
    Abort,   ///< panic on the first violation (CI default)
    Collect, ///< record and keep going (negative tests, fuzzing)
};

/** Components built from now on carry checks; clears the violation
 *  log.  Call only while no simulation is running. */
void arm(Mode mode = Mode::Abort);

/** Components built from now on carry no checks; the log is kept for
 *  inspection until the next arm(). */
void disarm();

/** Whether a component built now carries checks.  HETSIM_CHECK /
 *  HETSIM_CHECK_MODE apply before main, or at the first call of this
 *  or arm()/disarm() if that comes earlier. */
bool armed();

/** Apply HETSIM_CHECK and HETSIM_CHECK_MODE; a malformed value is
 *  fatal. */
void configureFromEnvironment();

/** Panic (Abort mode) or append to the log (Collect mode). */
void violate(Rule rule, Tick tick, std::string where, std::string message);

/** Every violation recorded since arm() (Collect mode; Abort mode
 *  panics before a second one can accumulate). */
std::vector<Violation> violations();

/** Violations recorded for @p rule. */
std::size_t count(Rule rule);

/** Structured multi-line report of every recorded violation. */
std::string report();

/** A program's exit status once its runs are done.  While armed in
 *  Collect mode it prints report() to stderr (its count line also when
 *  nothing was recorded) and returns 1 if anything was; otherwise it
 *  prints nothing and returns 0. */
int collectExitStatus();

// ---- stateless rules (hierarchy and channel call them while armed) ----

void earlyWake(std::uint64_t id, Tick at, bool fast_arrived, Tick fast_tick,
               bool parity_ok);
void lineComplete(std::uint64_t id, Tick at, bool has_fast,
                  bool fast_arrived, Tick fast_tick);
/** An L1 hit; @p mshr_live says the line also has an MSHR, which L2
 *  inclusion rules out (the hierarchy resolves L1 hits first). */
void l1Hit(Addr line, unsigned core, Tick at, bool mshr_live);
/** The latency-attribution ledger of a completed read on @p channel. */
void phaseLedger(const std::string &channel, const dram::MemRequest &req);

/** One channel's command stream, re-derived bank by bank. */
class ChannelCheck
{
  public:
    ChannelCheck(std::string name, const dram::DeviceParams &params,
                 unsigned ranks);

    void command(dram::DramCmd cmd, Tick at, const dram::DramCoord &coord,
                 Tick data_start, Tick data_end);
    void powerDown(unsigned rank, Tick at);
    void wake(unsigned rank, Tick at);

  private:
    // kTickNever means "no such command observed yet".
    struct BankState
    {
        bool touched = false; ///< a command addressed this bank
        bool open = false;
        Tick lastAct = kTickNever;
        Tick lastCol = kTickNever;      ///< any column command (tCCD)
        Tick lastReadCol = kTickNever;  ///< for tRTP recovery
        Tick lastWriteCol = kTickNever; ///< for tWR recovery
        Tick lastPre = kTickNever;
    };

    struct RankState
    {
        Tick acts[4] = {kTickNever, kTickNever, kTickNever, kTickNever};
        unsigned actIdx = 0;
        std::uint64_t actCount = 0;
        Tick lastActAny = kTickNever;
        Tick refreshUntil = 0;
        Tick lastRefreshStart = kTickNever;
        Tick lastWriteDataEnd = 0;
        bool poweredDown = false;
        Tick wakeReady = 0;
    };

    BankState &bank(unsigned rank, unsigned bank);
    /** An implicit precharge of every touched bank of @p rank. */
    void closeRank(unsigned rank, Tick at);
    void fail(Rule rule, Tick at, unsigned rank, int bank,
              std::string message) const;
    void checkActivate(RankState &rs, BankState &bs, unsigned rank,
                       unsigned bank, Tick at);
    void checkColumnData(RankState &rs, unsigned rank, unsigned bank,
                         bool is_write, Tick at, Tick data_start,
                         Tick data_end);
    void checkPrechargeRecovery(const BankState &bs, unsigned rank,
                                unsigned bank, Tick at) const;

    std::string name_;
    dram::DeviceParams p_;
    std::vector<RankState> ranks_;
    std::vector<BankState> banks_; ///< rank * banksPerRank + bank
    Tick firstCmd_ = kTickNever; ///< cycle-grid phase reference
    Tick lastCmd_ = 0;
    Tick lastDataEnd_ = 0;
    int lastDataRank_ = -1;
    bool lastDataWasWrite_ = false;
    bool anyData_ = false;
};

/** Ids that went live and are not retired yet: an MSHR file's
 *  allocations (`mshr_leak`) or a fault model's injected parity faults
 *  (`fault`), each with the tick it went live. */
class LiveIds
{
  public:
    enum class Kind : std::uint8_t { Mshr, Fault };

    explicit LiveIds(Kind kind) : kind_(kind) {}

    /** An allocation / injection; the id must not be live. */
    void add(std::uint64_t id, Tick at);
    /** A release / resolution; the id must be live. */
    void remove(std::uint64_t id, Tick at);
    /** Every id still live is a leak; the set is empty afterwards. */
    void drain();

  private:
    void fail(std::uint64_t id, Tick at, std::string message) const;

    Kind kind_;
    std::map<std::uint64_t, Tick> live_;
};

/** A CWF backend's pending two-fragment fills, by MSHR id. */
class FillCheck
{
  public:
    void issued(std::uint64_t id, Tick at);
    void fragment(std::uint64_t id, bool fast, Tick at);
    void complete(std::uint64_t id, Tick fast_tick, Tick slow_tick,
                  Tick done_tick);
    /** Every fill still pending is a leak; the set is empty afterwards. */
    void drain();

  private:
    struct FillState
    {
        Tick issued = 0;
        Tick fastTick = kTickNever;
        Tick slowTick = kTickNever;
    };

    std::map<std::uint64_t, FillState> live_;
};

} // namespace hetsim::check

#endif // HETSIM_CHECK_CHECKER_HH
