/**
 * @file
 * Critical-word parity faults (paper Section 4.2.3, DESIGN.md section
 * 14).
 *
 * The critical word on the fast channel carries byte parity, which
 * detects an error but cannot correct it.  At
 * FaultParams::parityFailRate a critical-word read fails its parity
 * check: the controller cancels the early wake and serves the word once
 * the SECDED-protected rest of the line has arrived, resolving the
 * fault there.  The checker's `fault` rule sees every injected fault
 * resolved exactly once.
 *
 * Determinism contract: every draw is a pure hash of (seed, line,
 * per-line read sequence number) — there is no shared RNG stream, so
 * the same seed fails the same reads regardless of scheduler, worker
 * count or attribution settings, and a zero rate makes *zero* draws.
 * A failing draw is not just a coin flip: the model flips one bit of a
 * synthesised payload and runs the real ecc::ByteParity check on it,
 * asserting that parity catches the error.
 */

#ifndef HETSIM_FAULT_FAULT_MODEL_HH
#define HETSIM_FAULT_FAULT_MODEL_HH

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "common/types.hh"

namespace hetsim::check
{
class LiveIds;
} // namespace hetsim::check

namespace hetsim::fault
{

/** The fault knob, set through SystemParams::fault and folded into
 *  SystemParams::cacheKey() when nonzero. */
struct FaultParams
{
    /** Chance that a critical word fails its byte-parity check. */
    double parityFailRate = 0.0;
};

class FaultModel
{
  public:
    FaultModel(const FaultParams &params, std::uint64_t seed);
    ~FaultModel();

    FaultModel(const FaultModel &) = delete;
    FaultModel &operator=(const FaultModel &) = delete;

    /** False at a zero rate: onCriticalRead draws nothing and the
     *  model holds no per-line state. */
    bool enabled() const { return params_.parityFailRate > 0; }

    /**
     * Draw the parity check of the critical word of @p line_addr
     * arriving at @p at.  Returns the id of the injected fault, or 0
     * when the word passes; every nonzero id must be resolve()d.
     */
    std::uint64_t onCriticalRead(Addr line_addr, Tick at);

    /** Fault @p fault_id was served off the SECDED-protected rest of
     *  the line at @p at. */
    void resolve(std::uint64_t fault_id, Tick at);

    /** Protocol validator: every fault still unresolved is a leak
     *  (call once the backend has drained; no-op unless built armed). */
    void checkDrained();

  private:
    std::uint64_t hash64(std::uint64_t tag, std::uint64_t a,
                         std::uint64_t b) const;

    FaultParams params_;
    std::uint64_t seed_;
    std::uint64_t nextFaultId_ = 1;
    /** Per-line read counters (the draw's sequence numbers); only
     *  populated when enabled(). */
    std::unordered_map<std::uint64_t, std::uint64_t> accessSeq_;
    /** Injected, unresolved faults; null unless built while
     *  check::armed(). */
    std::unique_ptr<check::LiveIds> check_;
};

} // namespace hetsim::fault

#endif // HETSIM_FAULT_FAULT_MODEL_HH
