/**
 * @file
 * Deterministic fault-injection & RAS model (DESIGN.md section 14).
 *
 * Fault taxonomy: transient single-bit flips, transient double-bit
 * flips, stuck-at cells (persistent per word-site), row-scoped
 * persistent faults (a whole DRAM row gone bad) and bus transfer
 * errors, each with its own rate knob and injected independently on
 * every read path — the fast critical-word channel (byte parity) and
 * the slow bulk channel (SECDED or chipkill).
 *
 * Determinism contract: every fault decision is a pure hash of
 * (seed, path, site, per-site access sequence number) — there is no
 * shared RNG stream, so the same seed produces the same fault sites
 * regardless of scheduler, worker count or attribution settings, and a
 * zero-rate configuration makes *zero* draws (bit-identical to a build
 * without the subsystem).  Persistent
 * classes (stuck cells, bad rows) are site-keyed hash thresholds that
 * recur on every access to the site; transients re-draw per access.
 *
 * Injection is not just a coin flip: the model synthesises a
 * deterministic payload for the word under test, encodes it with the
 * real codec for the path (ecc::ByteParity / ecc::Secded7264 /
 * ecc::ChipkillSsc), applies a class-specific flip pattern and decodes
 * — `detected` / `correctable` come from the codec, not from the rate
 * table.  Flip patterns are constructed to stay within each code's
 * guaranteed detection envelope (never two flips in one parity byte;
 * at most two flipped bits per SECDED word; row damage confined to one
 * chipkill symbol), so every injected fault is detectable and the
 * recovery ledger (corrected + retried + escalated = injected) is
 * exhaustive — the checker's `fault` rule enforces exactly that.
 */

#ifndef HETSIM_FAULT_FAULT_MODEL_HH
#define HETSIM_FAULT_FAULT_MODEL_HH

#include <cstdint>
#include <iosfwd>
#include <unordered_map>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "dram/request.hh"

namespace hetsim::fault
{

enum class FaultClass : std::uint8_t {
    None,
    TransientBit,    ///< single-bit upset, this access only
    TransientDouble, ///< double-bit upset, this access only
    StuckBit,        ///< persistent stuck-at cell at one word site
    RowFault,        ///< persistent row-scoped damage (channel/rank/bank/row)
    BusError,        ///< single-bit transfer error on the wire
};

const char *toString(FaultClass cls);

/** Read paths faults can be injected on. */
enum class ReadPath : std::uint8_t {
    FastCritical, ///< x9 critical-word channel (byte parity)
    SlowBulk,     ///< rest-of-line + ECC on the slow channel
};

const char *toString(ReadPath path);

/** ECC scheme protecting the bulk paths. */
enum class SlowEccKind : std::uint8_t { Secded, Chipkill };

/** How one injected fault left the recovery ladder. */
enum class Resolution : std::uint8_t {
    Corrected, ///< fixed in place (SECDED/chipkill) or served off the
               ///< SECDED-protected bulk copy after a parity fail
    Retried,   ///< uncorrectable; handled by scheduling a bounded re-read
    Escalated, ///< retry budget exhausted; surfaced as an uncorrected error
};

const char *toString(Resolution res);

/**
 * All fault knobs, set through SystemParams::fault and folded into
 * SystemParams::cacheKey() whenever any knob differs from the
 * defaults.
 */
struct FaultParams
{
    double transientBer = 0.0;   ///< per-read single-bit probability
    double doubleBer = 0.0;      ///< per-read double-bit probability
    double stuckCellRate = 0.0;  ///< per word-site persistent density
    double rowFaultRate = 0.0;   ///< per DRAM-row persistent density
    double busErrorRate = 0.0;   ///< per-transfer single-bit probability
    /** Extra transient rate on the fast critical-word path only: the
     *  chance that a critical word fails its byte-parity check. */
    double fastExtraTransient = 0.0;

    /** Bounded re-read budget for uncorrectable bulk errors. */
    unsigned maxRetries = 3;
    /** Detected *persistent* faults at one site before the region is
     *  retired and the hierarchy degrades to slow-only service. */
    unsigned degradeThreshold = 3;
    SlowEccKind slowEcc = SlowEccKind::Secded;
    /** Fault-site seed; 0 = derive from SystemParams::seed. */
    std::uint64_t seed = 0;

    /** True when any injection rate is non-zero. */
    bool anyRate() const;
    /** True when any knob differs from a default-constructed value. */
    bool nonDefault() const;

    /** Append a compact stable key fragment (cacheKey support). */
    void appendKey(std::ostream &os) const;
};

/** What injection did to one fragment read. */
struct Injection
{
    FaultClass cls = FaultClass::None;
    ReadPath path = ReadPath::SlowBulk;
    std::uint64_t faultId = 0; ///< unique per injected fault instance
    std::uint64_t siteKey = 0; ///< spatial site identity (region tracking)
    bool detected = false;     ///< the path's code saw the error
    bool correctable = false;  ///< the path's code corrected in place
    bool persistent = false;   ///< recurs on a re-read of the same site

    bool faulty() const { return cls != FaultClass::None; }
};

/** A parked re-read awaiting its backoff release. */
struct RetryRead
{
    Addr lineAddr = 0;
    dram::DramCoord coord;
    std::uint64_t cookie = 0;
    std::uint8_t coreId = 0;
    Tick at = 0; ///< earliest re-enqueue tick
};

class FaultModel
{
  public:
    explicit FaultModel(const FaultParams &params);
    ~FaultModel();

    FaultModel(const FaultModel &) = delete;
    FaultModel &operator=(const FaultModel &) = delete;

    const FaultParams &params() const { return params_; }

    /** Any injection possible at all; false means onRead is never
     *  called and the model holds no per-site state (zero-rate runs
     *  stay bit-identical). */
    bool enabled() const { return enabled_; }

    /**
     * Sample the fault state of one fragment read completing at @p at.
     * Deterministic in (seed, path, site, per-site sequence); runs the
     * real codec for the path on a synthesised payload to derive
     * detected/correctable.  Injected faults enter the ledger and the
     * checker's live-fault map; the caller must resolve() each one.
     */
    Injection onRead(ReadPath path, Addr line_addr,
                     const dram::DramCoord &coord, Tick at);

    /** Account the recovery-ladder outcome of one injected fault. */
    void resolve(const Injection &inj, Resolution how, Tick at);

    /**
     * Record a detected fault at its site for persistent-failure
     * detection.  Returns true when the site just crossed
     * degradeThreshold — the caller retires the containing region.
     * Transient classes never accumulate site history (and neither do
     * legacy-alias draws), so only genuinely persistent damage trips
     * degradation.
     */
    bool noteSiteFault(const Injection &inj);

    /** Base re-read backoff, ticks; doubles with each attempt. */
    static constexpr Tick kRetryBackoffTicks = 32;

    /** Backoff delay before re-read attempt @p attempt (1-based). */
    static Tick retryDelay(unsigned attempt);

    void noteRetryRead() { ledger_.retryReads.inc(); }
    void noteRegionRetired() { ledger_.retiredRegions.inc(); }
    void noteDegradedFill() { ledger_.degradedFills.inc(); }

    /** Latency of a fill served slow-only because its fast region was
     *  retired (issue -> completion), ticks. */
    void sampleDegradedLatency(Tick ticks);

    /** Cumulative over the run (deliberately not window-reset, so the
     *  injected = corrected + retried + escalated balance always holds
     *  at end of run). */
    struct Ledger
    {
        Counter injected;
        Counter transientBit;
        Counter transientDouble;
        Counter stuckBit;
        Counter rowFault;
        Counter busError;
        Counter correctedInPlace; ///< ECC fixed the word on arrival
        Counter corrected;        ///< resolution: corrected
        Counter retried;          ///< resolution: detected-and-retried
        Counter escalated;        ///< resolution: uncorrected, surfaced
        Counter retryReads;       ///< raw re-read attempts issued
        Counter retiredRegions;   ///< fast regions taken out of service
        Counter degradedFills;    ///< fills served slow-only
    };

    const Ledger &ledger() const { return ledger_; }
    const Histogram &degradedLatency() const { return degradedLatency_; }

    /** True iff corrected + retried + escalated == injected. */
    bool ledgerBalanced() const;

    /** Register the `fault/model` stat group (only call when
     *  enabled(): zero-rate reports stay byte-identical). */
    void registerStats(StatRegistry &registry) const;

  private:
    std::uint64_t siteKeyOf(ReadPath path, Addr line_addr) const;
    std::uint64_t rowKeyOf(ReadPath path,
                           const dram::DramCoord &coord) const;
    double hash01(std::uint64_t tag, std::uint64_t a,
                  std::uint64_t b) const;
    std::uint64_t hash64(std::uint64_t tag, std::uint64_t a,
                         std::uint64_t b) const;
    void applyCodec(Injection &inj, Addr line_addr, std::uint64_t seq);

    FaultParams params_;
    bool enabled_ = false;
    std::uint64_t seed_ = 0;
    std::uint64_t nextFaultId_ = 1;

    /** Per-site access counters (sequence numbers for transient
     *  draws); only populated when enabled(). */
    std::unordered_map<std::uint64_t, std::uint64_t> accessSeq_;
    /** Detected persistent faults per site (degradation trigger). */
    std::unordered_map<std::uint64_t, unsigned> siteFaults_;

    Ledger ledger_;
    Histogram degradedLatency_{16.0, 512};
};

/**
 * Recovery ladder for full-line (bulk) reads, shared by every backend
 * whose bulk path is ECC-protected: runs injection on a completed read,
 * resolves correctable faults in place, parks a bounded backed-off
 * re-read for uncorrectable ones, and escalates once the budget is
 * spent.  The owning backend releases parked re-reads from its tick
 * path via drain().
 */
class BulkRetryLadder
{
  public:
    explicit BulkRetryLadder(FaultModel &model) : model_(model) {}

    /**
     * Injection + ladder for a bulk read completing at @p at.  Returns
     * true when the line should be delivered upward (clean, corrected
     * in place, or escalated past the retry budget); false when a
     * re-read was parked instead and delivery must wait for it.
     */
    bool onReadComplete(ReadPath path, Addr line_addr,
                        const dram::DramCoord &coord, std::uint64_t cookie,
                        std::uint8_t core_id, Tick at);

    /**
     * Release parked re-reads due at @p now.  @p enqueue receives a
     * RetryRead and returns false to leave it parked (backpressure);
     * queue order is insertion order, so release is deterministic.
     */
    template <typename EnqueueFn>
    void drain(Tick now, EnqueueFn &&enqueue)
    {
        for (auto it = queue_.begin(); it != queue_.end();) {
            if (it->at <= now && enqueue(*it))
                it = queue_.erase(it);
            else
                ++it;
        }
    }

    bool empty() const { return queue_.empty(); }

  private:
    FaultModel &model_;
    std::vector<RetryRead> queue_;
    /** Re-read attempts per in-flight cookie; erased on delivery. */
    std::unordered_map<std::uint64_t, unsigned> attempts_;
};

} // namespace hetsim::fault

#endif // HETSIM_FAULT_FAULT_MODEL_HH
