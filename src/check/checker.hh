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
 *     (leak detection via finalizeAll()).
 *
 * Cost model mirrors common/trace.hh: when checking is disabled (the
 * default) every hook is a single load+branch on a global flag.  Enable
 * from the environment or programmatically:
 *
 *   HETSIM_CHECK=1           enable (abort mode: first violation panics
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

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
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
    MshrLeak,        ///< MSHR entry never drained (finalizeAll)
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

namespace detail
{
/** Hot-path gate; read by the inline hook wrappers below.  Atomic so
 *  parallel sweep workers can race the gate benignly (relaxed loads —
 *  callers must not enable/disable while simulations are running). */
extern std::atomic<bool> g_checkEnabled;
} // namespace detail

class Checker
{
  public:
    /** Process-wide instance, configured from the environment on first
     *  use (see file header for the knobs). */
    static Checker &instance();

    bool enabled() const { return detail::g_checkEnabled; }
    Mode mode() const { return mode_; }

    /** Enable checking; clears all tracked state and past violations. */
    void enable(Mode mode = Mode::Abort);

    /** Stop checking; tracked state and violations are retained for
     *  inspection until the next enable(). */
    void disable();

    /** All violations recorded since enable() (Collect mode; Abort mode
     *  panics before a second one can accumulate).  Returns a reference
     *  into checker state: inspect only after concurrent runs finish. */
    const std::vector<Violation> &violations() const { return violations_; }

    /** Violations recorded for @p rule. */
    std::size_t count(Rule rule) const;

    /** Structured multi-line report of every recorded violation. */
    std::string report() const;

    /**
     * End-of-run leak detection: every MSHR allocation still live and
     * every CWF fill still pending becomes a MshrLeak violation.  Call
     * only after draining the system (backends idle, MSHRs released);
     * runs that stop mid-flight legitimately hold live entries.
     */
    void finalizeAll();

    // ---- DRAM command stream (one funnel: Channel::recordAudit) ----
    void dramCommand(const void *chan, const std::string &name,
                     const dram::DeviceParams &params, dram::DramCmd cmd,
                     Tick at, const dram::DramCoord &coord, Tick data_start,
                     Tick data_end);
    void rankPowerDown(const void *chan, const std::string &name,
                       const dram::DeviceParams &params, unsigned rank,
                       Tick at);
    void rankWake(const void *chan, const std::string &name,
                  const dram::DeviceParams &params, unsigned rank, Tick at);
    void channelDestroyed(const void *chan);

    // ---- MSHR lifecycle ----
    void mshrAlloc(const void *domain, std::uint64_t id, Tick at);
    void mshrRelease(const void *domain, std::uint64_t id, Tick at);
    void mshrDomainDestroyed(const void *domain);

    // ---- CWF two-fragment fill protocol ----
    void cwfFillIssued(const void *domain, std::uint64_t id, Tick at);
    void cwfFragment(const void *domain, std::uint64_t id, bool fast,
                     Tick at);
    void cwfComplete(const void *domain, std::uint64_t id, Tick fast_tick,
                     Tick slow_tick, Tick done_tick);
    void cwfDomainDestroyed(const void *domain);

    // ---- hierarchy-side CWF invariants (stateless) ----
    void earlyWake(std::uint64_t id, Tick at, bool fast_arrived,
                   Tick fast_tick, bool parity_ok);
    void lineComplete(std::uint64_t id, Tick at, bool has_fast,
                      bool fast_arrived, Tick fast_tick);

    /** An L1 hit; @p mshr_live says the line also has an MSHR, which
     *  L2 inclusion rules out (the hierarchy resolves L1 hits first). */
    void l1Hit(Addr line, unsigned core, Tick at, bool mshr_live);

    // ---- latency-attribution phase ledger (stateless) ----
    void phaseLedger(const std::string &name, const dram::MemRequest &req);

    // ---- fault-injection accounting (Rule::Fault) ----
    /** A fault entered the system; it must be resolved exactly once. */
    void faultInjected(const void *domain, std::uint64_t fault_id,
                       Tick at);
    /** Fault @p fault_id was served off the ECC-protected line. */
    void faultResolved(const void *domain, std::uint64_t fault_id,
                       Tick at);
    void faultDomainDestroyed(const void *domain);

    Checker(const Checker &) = delete;
    Checker &operator=(const Checker &) = delete;

    /** Apply HETSIM_CHECK and HETSIM_CHECK_MODE (done once before
     *  main); a malformed value is fatal. */
    void configureFromEnvironment();

  private:
    Checker();

    void violate(Rule rule, Tick tick, std::string where,
                 std::string message);
    void clearState();

    // Per-bank view re-derived from the command stream alone.  kTickNever
    // means "no such command observed yet".
    struct BankState
    {
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

    struct ChannelState
    {
        std::string name;
        const dram::DeviceParams *params = nullptr;
        std::map<std::pair<unsigned, unsigned>, BankState> banks;
        std::map<unsigned, RankState> ranks;
        Tick firstCmd = kTickNever; ///< cycle-grid phase reference
        Tick lastCmd = 0;
        Tick lastDataEnd = 0;
        int lastDataRank = -1;
        bool lastDataWasWrite = false;
        bool anyData = false;
    };

    struct FillState
    {
        Tick issued = 0;
        Tick fastTick = kTickNever;
        Tick slowTick = kTickNever;
    };

    ChannelState &stateFor(const void *chan, const std::string &name,
                           const dram::DeviceParams &params);
    void checkActivate(ChannelState &cs, RankState &rs, BankState &bs,
                       const std::string &where,
                       const dram::DeviceParams &p, Tick at);
    void checkColumnData(ChannelState &cs, RankState &rs,
                         const std::string &where,
                         const dram::DeviceParams &p, bool is_write,
                         Tick at, unsigned rank, Tick data_start,
                         Tick data_end);
    void checkPrechargeRecovery(const BankState &bs,
                                const std::string &where,
                                const dram::DeviceParams &p, Tick at);

    /** Serialises every public entry point: checker state is process
     *  global (keyed by component address), while the parallel sweep
     *  engine runs Systems on several threads at once. */
    mutable std::mutex mutex_;

    Mode mode_ = Mode::Abort;
    std::vector<Violation> violations_;
    std::uint64_t suppressed_ = 0; ///< violations beyond the cap

    std::map<const void *, ChannelState> channels_;
    std::map<std::pair<const void *, std::uint64_t>, Tick> mshrLive_;
    std::map<std::pair<const void *, std::uint64_t>, FillState> cwfLive_;
    /** Injected-but-unresolved faults (leak check in finalizeAll). */
    std::map<std::pair<const void *, std::uint64_t>, Tick> faultLive_;
};

// --------------------------------------------------------------------
// Inline gated hooks: one load+branch when disabled.  Call these from
// model code.
// --------------------------------------------------------------------

#define HETSIM_CHECK_HOOK(call)                                             \
    do {                                                                    \
        if (::hetsim::check::detail::g_checkEnabled) [[unlikely]] {         \
            ::hetsim::check::Checker::instance().call;                      \
        }                                                                   \
    } while (0)

inline void
onDramCommand(const void *chan, const std::string &name,
              const dram::DeviceParams &params, dram::DramCmd cmd, Tick at,
              const dram::DramCoord &coord, Tick data_start, Tick data_end)
{
    HETSIM_CHECK_HOOK(
        dramCommand(chan, name, params, cmd, at, coord, data_start,
                    data_end));
}

inline void
onRankPowerDown(const void *chan, const std::string &name,
                const dram::DeviceParams &params, unsigned rank, Tick at)
{
    HETSIM_CHECK_HOOK(rankPowerDown(chan, name, params, rank, at));
}

inline void
onRankWake(const void *chan, const std::string &name,
           const dram::DeviceParams &params, unsigned rank, Tick at)
{
    HETSIM_CHECK_HOOK(rankWake(chan, name, params, rank, at));
}

inline void
onChannelDestroyed(const void *chan)
{
    HETSIM_CHECK_HOOK(channelDestroyed(chan));
}

inline void
onMshrAlloc(const void *domain, std::uint64_t id, Tick at)
{
    HETSIM_CHECK_HOOK(mshrAlloc(domain, id, at));
}

inline void
onMshrRelease(const void *domain, std::uint64_t id, Tick at)
{
    HETSIM_CHECK_HOOK(mshrRelease(domain, id, at));
}

inline void
onMshrDomainDestroyed(const void *domain)
{
    HETSIM_CHECK_HOOK(mshrDomainDestroyed(domain));
}

inline void
onCwfFillIssued(const void *domain, std::uint64_t id, Tick at)
{
    HETSIM_CHECK_HOOK(cwfFillIssued(domain, id, at));
}

inline void
onCwfFragment(const void *domain, std::uint64_t id, bool fast, Tick at)
{
    HETSIM_CHECK_HOOK(cwfFragment(domain, id, fast, at));
}

inline void
onCwfComplete(const void *domain, std::uint64_t id, Tick fast_tick,
              Tick slow_tick, Tick done_tick)
{
    HETSIM_CHECK_HOOK(
        cwfComplete(domain, id, fast_tick, slow_tick, done_tick));
}

inline void
onCwfDomainDestroyed(const void *domain)
{
    HETSIM_CHECK_HOOK(cwfDomainDestroyed(domain));
}

inline void
onEarlyWake(std::uint64_t id, Tick at, bool fast_arrived, Tick fast_tick,
            bool parity_ok)
{
    HETSIM_CHECK_HOOK(earlyWake(id, at, fast_arrived, fast_tick, parity_ok));
}

inline void
onLineComplete(std::uint64_t id, Tick at, bool has_fast, bool fast_arrived,
               Tick fast_tick)
{
    HETSIM_CHECK_HOOK(lineComplete(id, at, has_fast, fast_arrived,
                                   fast_tick));
}

/** @p mshr_live is a callable, evaluated only while checking is on, so
 *  the L1-hit path pays one branch for the MSHR probe it skips. */
template <typename MshrLive>
inline void
onL1Hit(Addr line, unsigned core, Tick at, MshrLive &&mshr_live)
{
    HETSIM_CHECK_HOOK(l1Hit(line, core, at, mshr_live()));
}

inline void
onPhaseLedger(const std::string &name, const dram::MemRequest &req)
{
    HETSIM_CHECK_HOOK(phaseLedger(name, req));
}

inline void
onFaultInjected(const void *domain, std::uint64_t fault_id, Tick at)
{
    HETSIM_CHECK_HOOK(faultInjected(domain, fault_id, at));
}

inline void
onFaultResolved(const void *domain, std::uint64_t fault_id, Tick at)
{
    HETSIM_CHECK_HOOK(faultResolved(domain, fault_id, at));
}

inline void
onFaultDomainDestroyed(const void *domain)
{
    HETSIM_CHECK_HOOK(faultDomainDestroyed(domain));
}

} // namespace hetsim::check

#endif // HETSIM_CHECK_CHECKER_HH
