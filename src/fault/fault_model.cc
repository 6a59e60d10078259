#include "fault/fault_model.hh"

#include <ostream>

#include "check/checker.hh"
#include "common/log.hh"
#include "ecc/chipkill.hh"
#include "ecc/parity.hh"
#include "ecc/secded.hh"

namespace hetsim::fault
{

namespace
{

// Domain-separation tags for the hash streams.  Values are arbitrary
// but frozen: changing them re-sites every fault.
constexpr std::uint64_t kTagSite = 0x51fe;
constexpr std::uint64_t kTagRow = 0x0f04;
constexpr std::uint64_t kTagStuck = 0x57c4;
constexpr std::uint64_t kTagAccess = 0xacce;
constexpr std::uint64_t kTagPayload = 0xda7a;
constexpr std::uint64_t kTagFlip = 0xf11b;

/** splitmix64 finaliser — the same mixing constants the Rng seeder
 *  uses; full 64-bit avalanche. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

const char *
toString(FaultClass cls)
{
    switch (cls) {
    case FaultClass::None: return "none";
    case FaultClass::TransientBit: return "transient_bit";
    case FaultClass::TransientDouble: return "transient_double";
    case FaultClass::StuckBit: return "stuck_bit";
    case FaultClass::RowFault: return "row_fault";
    case FaultClass::BusError: return "bus_error";
    }
    return "?";
}

const char *
toString(ReadPath path)
{
    switch (path) {
    case ReadPath::FastCritical: return "fast_critical";
    case ReadPath::SlowBulk: return "slow_bulk";
    }
    return "?";
}

const char *
toString(Resolution res)
{
    switch (res) {
    case Resolution::Corrected: return "corrected";
    case Resolution::Retried: return "retried";
    case Resolution::Escalated: return "escalated";
    }
    return "?";
}

bool
FaultParams::anyRate() const
{
    return transientBer > 0 || doubleBer > 0 || stuckCellRate > 0 ||
           rowFaultRate > 0 || busErrorRate > 0 || fastExtraTransient > 0;
}

bool
FaultParams::nonDefault() const
{
    const FaultParams def;
    return anyRate() || maxRetries != def.maxRetries ||
           degradeThreshold != def.degradeThreshold ||
           slowEcc != def.slowEcc || seed != def.seed;
}

void
FaultParams::appendKey(std::ostream &os) const
{
    os << "/fl" << transientBer << ':' << doubleBer << ':' << stuckCellRate
       << ':' << rowFaultRate << ':' << busErrorRate << ':'
       << fastExtraTransient << "/fr" << maxRetries << ':'
       << degradeThreshold << "/fe"
       << (slowEcc == SlowEccKind::Chipkill ? "ck" : "sd") << "/fx"
       << seed;
}

FaultModel::FaultModel(const FaultParams &params)
    : params_(params)
{
    enabled_ = params_.anyRate();
    // seed==0 means the builder derives it from SystemParams::seed
    // before constructing us; a standalone model falls back to a fixed
    // nonzero constant so hash streams are never keyed on zero.
    seed_ = mix64(params_.seed ? params_.seed : 0x5eedULL);
}

FaultModel::~FaultModel()
{
    check::onFaultDomainDestroyed(this);
}

std::uint64_t
FaultModel::hash64(std::uint64_t tag, std::uint64_t a,
                   std::uint64_t b) const
{
    return mix64(mix64(mix64(seed_ ^ tag) + a) + b);
}

double
FaultModel::hash01(std::uint64_t tag, std::uint64_t a,
                   std::uint64_t b) const
{
    return static_cast<double>(hash64(tag, a, b) >> 11) * 0x1.0p-53;
}

std::uint64_t
FaultModel::siteKeyOf(ReadPath path, Addr line_addr) const
{
    return hash64(kTagSite, static_cast<std::uint64_t>(path), line_addr);
}

std::uint64_t
FaultModel::rowKeyOf(ReadPath path, const dram::DramCoord &coord) const
{
    const std::uint64_t geom =
        (static_cast<std::uint64_t>(coord.channel) << 48) |
        (static_cast<std::uint64_t>(coord.rank) << 40) |
        (static_cast<std::uint64_t>(coord.bank) << 32) | coord.row;
    return hash64(kTagRow, static_cast<std::uint64_t>(path), geom);
}

Injection
FaultModel::onRead(ReadPath path, Addr line_addr,
                   const dram::DramCoord &coord, Tick at)
{
    Injection inj;
    if (!enabled_)
        return inj;

    const std::uint64_t site = siteKeyOf(path, line_addr);
    const std::uint64_t seq = ++accessSeq_[site];
    inj.path = path;
    inj.siteKey = site;

    // Persistent classes first: a site inside a bad row or holding a
    // stuck cell faults on *every* access (same hash, same threshold),
    // which is what makes the retry ladder escalate and the degrade
    // counter accumulate.
    if (params_.rowFaultRate > 0) {
        const std::uint64_t row_key = rowKeyOf(path, coord);
        if (hash01(kTagRow, row_key, 1) < params_.rowFaultRate) {
            inj.cls = FaultClass::RowFault;
            inj.persistent = true;
            inj.siteKey = row_key; // region identity is the row
        }
    }
    if (!inj.faulty() && params_.stuckCellRate > 0 &&
        hash01(kTagStuck, site, 1) < params_.stuckCellRate) {
        inj.cls = FaultClass::StuckBit;
        inj.persistent = true;
    }
    if (!inj.faulty()) {
        double transient = params_.transientBer;
        if (path == ReadPath::FastCritical)
            transient += params_.fastExtraTransient;
        const double bus = params_.busErrorRate;
        const double dbl = params_.doubleBer;
        if (bus > 0 || transient > 0 || dbl > 0) {
            const double u = hash01(kTagAccess, site, seq);
            if (u < bus)
                inj.cls = FaultClass::BusError;
            else if (u < bus + transient)
                inj.cls = FaultClass::TransientBit;
            else if (u < bus + transient + dbl)
                inj.cls = FaultClass::TransientDouble;
        }
    }
    if (!inj.faulty())
        return inj;

    inj.faultId = nextFaultId_++;
    applyCodec(inj, line_addr, seq);

    ledger_.injected.inc();
    switch (inj.cls) {
    case FaultClass::TransientBit: ledger_.transientBit.inc(); break;
    case FaultClass::TransientDouble:
        ledger_.transientDouble.inc();
        break;
    case FaultClass::StuckBit: ledger_.stuckBit.inc(); break;
    case FaultClass::RowFault: ledger_.rowFault.inc(); break;
    case FaultClass::BusError: ledger_.busError.inc(); break;
    case FaultClass::None: break;
    }
    if (inj.correctable)
        ledger_.correctedInPlace.inc();
    check::onFaultInjected(this, inj.faultId, toString(inj.cls), at);
    return inj;
}

/**
 * Run the path's real codec against a synthesised payload with a
 * class-specific corruption pattern, and derive detected/correctable
 * from the decode status.  Patterns are chosen to stay inside each
 * code's guaranteed envelope (see file header) so detection is certain.
 */
void
FaultModel::applyCodec(Injection &inj, Addr line_addr, std::uint64_t seq)
{
    const std::uint64_t payload = hash64(kTagPayload, line_addr, seq);
    const std::uint64_t r = hash64(kTagFlip, inj.faultId, line_addr);
    const unsigned bit0 = r & 63;
    const bool two_bits = inj.cls == FaultClass::TransientDouble ||
                          inj.cls == FaultClass::RowFault;

    if (inj.path == ReadPath::FastCritical) {
        // Byte parity: detect-only.  A double flip must land in two
        // distinct bytes or it would cancel in the per-byte parity.
        const std::uint8_t par = ecc::ByteParity::encode(payload);
        std::uint64_t corrupted = payload ^ (1ULL << bit0);
        if (two_bits) {
            const unsigned byte1 =
                (bit0 / 8 + 1 + ((r >> 6) % 7)) % 8;
            corrupted ^= 1ULL << (byte1 * 8 + ((r >> 9) & 7));
        }
        inj.detected = !ecc::ByteParity::check(corrupted, par);
        inj.correctable = false;
        sim_assert(inj.detected);
        return;
    }

    if (params_.slowEcc == SlowEccKind::Secded) {
        const std::uint8_t chk = ecc::Secded7264::encode(payload);
        std::uint64_t corrupted = payload ^ (1ULL << bit0);
        if (two_bits)
            corrupted ^= 1ULL << ((bit0 + 1 + ((r >> 6) % 63)) % 64);
        const auto res = ecc::Secded7264::decode(corrupted, chk);
        inj.detected = res.status != ecc::Secded7264::Status::Ok;
        inj.correctable =
            res.status == ecc::Secded7264::Status::CorrectedData ||
            res.status == ecc::Secded7264::Status::CorrectedCheck;
        sim_assert(inj.detected);
        sim_assert(!inj.correctable || res.data == payload);
        return;
    }

    // Chipkill: a whole-row fault models one dead chip — many bits but
    // confined to a single byte-symbol, which RS(18,16) corrects.  A
    // transient double spans two symbols and is detect-only.
    ecc::ChipkillSsc::Block blk{payload,
                                hash64(kTagPayload, ~line_addr, seq)};
    const std::uint16_t chk = ecc::ChipkillSsc::encode(blk);
    ecc::ChipkillSsc::Block corrupted = blk;
    auto flip_in_symbol = [&corrupted](unsigned sym, std::uint8_t mask) {
        std::uint64_t &word = sym < 8 ? corrupted.lo : corrupted.hi;
        word ^= static_cast<std::uint64_t>(mask) << ((sym % 8) * 8);
    };
    const unsigned sym0 = r % ecc::ChipkillSsc::kDataSymbols;
    if (inj.cls == FaultClass::TransientDouble) {
        // Two corrupted symbols exceed RS(18,16)'s correction power, but
        // a distance-3 code cannot correct singles AND detect every
        // double: an unlucky pair aliases to a plausible single-symbol
        // correction.  Probe flip pairs deterministically until the
        // decoder provably flags the pattern as multi-symbol, so the
        // detection guarantee holds by construction.
        for (unsigned k = 0;; ++k) {
            corrupted = blk;
            const unsigned sym1 = (sym0 + 1 + ((r >> 8) + k) % 15) %
                                  ecc::ChipkillSsc::kDataSymbols;
            flip_in_symbol(sym0,
                           static_cast<std::uint8_t>(1u << ((r >> 16) & 7)));
            flip_in_symbol(
                sym1,
                static_cast<std::uint8_t>(1u << (((r >> 24) + k) & 7)));
            if (ecc::ChipkillSsc::decode(corrupted, chk).status ==
                ecc::ChipkillSsc::Status::DetectedMulti)
                break;
            sim_assert(k < 64,
                       "no detectably-multi double-symbol flip found");
        }
    } else if (inj.cls == FaultClass::RowFault) {
        // Multi-bit, one symbol: 0 and 255 excluded so the symbol is
        // genuinely corrupted.
        flip_in_symbol(sym0,
                       static_cast<std::uint8_t>(1 + ((r >> 8) % 254)));
    } else {
        flip_in_symbol(sym0, static_cast<std::uint8_t>(1u << ((r >> 8) & 7)));
    }
    const auto res = ecc::ChipkillSsc::decode(corrupted, chk);
    inj.detected = res.status != ecc::ChipkillSsc::Status::Ok;
    inj.correctable =
        res.status == ecc::ChipkillSsc::Status::CorrectedSymbol ||
        res.status == ecc::ChipkillSsc::Status::CorrectedCheck;
    sim_assert(inj.detected);
    sim_assert(!inj.correctable || res.data == blk);
}

void
FaultModel::resolve(const Injection &inj, Resolution how, Tick at)
{
    sim_assert(inj.faulty() && inj.faultId != 0);
    switch (how) {
    case Resolution::Corrected: ledger_.corrected.inc(); break;
    case Resolution::Retried: ledger_.retried.inc(); break;
    case Resolution::Escalated: ledger_.escalated.inc(); break;
    }
    check::onFaultResolved(this, inj.faultId, toString(how), at);
}

bool
FaultModel::noteSiteFault(const Injection &inj)
{
    if (!inj.persistent || !inj.detected)
        return false;
    const unsigned n = ++siteFaults_[inj.siteKey];
    return n == params_.degradeThreshold;
}

Tick
FaultModel::retryDelay(unsigned attempt)
{
    sim_assert(attempt >= 1);
    const unsigned shift = attempt - 1 < 16 ? attempt - 1 : 16;
    return kRetryBackoffTicks << shift;
}

void
FaultModel::sampleDegradedLatency(Tick ticks)
{
    degradedLatency_.sample(static_cast<double>(ticks));
}

bool
FaultModel::ledgerBalanced() const
{
    return ledger_.corrected.value() + ledger_.retried.value() +
               ledger_.escalated.value() ==
           ledger_.injected.value();
}

void
FaultModel::registerStats(StatRegistry &registry) const
{
    auto &g = registry.group("fault/model");
    g.addCounter("injected", &ledger_.injected);
    g.addCounter("transient_bit", &ledger_.transientBit);
    g.addCounter("transient_double", &ledger_.transientDouble);
    g.addCounter("stuck_bit", &ledger_.stuckBit);
    g.addCounter("row_fault", &ledger_.rowFault);
    g.addCounter("bus_error", &ledger_.busError);
    g.addCounter("corrected_in_place", &ledger_.correctedInPlace);
    g.addCounter("corrected", &ledger_.corrected);
    g.addCounter("retried", &ledger_.retried);
    g.addCounter("escalated", &ledger_.escalated);
    g.addCounter("retry_reads", &ledger_.retryReads);
    g.addCounter("retired_regions", &ledger_.retiredRegions);
    g.addCounter("degraded_fills", &ledger_.degradedFills);
    g.addHistogram("degraded_latency", &degradedLatency_);
}

bool
BulkRetryLadder::onReadComplete(ReadPath path, Addr line_addr,
                                const dram::DramCoord &coord,
                                std::uint64_t cookie, std::uint8_t core_id,
                                Tick at)
{
    if (!model_.enabled())
        return true;
    const Injection inj = model_.onRead(path, line_addr, coord, at);
    if (!inj.faulty()) {
        attempts_.erase(cookie);
        return true;
    }
    if (inj.correctable) {
        model_.resolve(inj, Resolution::Corrected, at);
        attempts_.erase(cookie);
        return true;
    }
    unsigned &n = attempts_[cookie];
    if (n < model_.params().maxRetries) {
        ++n;
        model_.resolve(inj, Resolution::Retried, at);
        model_.noteRetryRead();
        queue_.push_back(RetryRead{line_addr, coord, cookie, core_id,
                                   at + FaultModel::retryDelay(n)});
        return false;
    }
    // Budget exhausted: the line is delivered with the error surfaced
    // (machine-check semantics); the ledger records the escalation.
    model_.resolve(inj, Resolution::Escalated, at);
    attempts_.erase(cookie);
    return true;
}

} // namespace hetsim::fault
