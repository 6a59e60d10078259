#include "fault/fault_model.hh"

#include "check/checker.hh"
#include "common/log.hh"
#include "ecc/parity.hh"

namespace hetsim::fault
{

namespace
{

// Domain-separation tags for the hash streams.  Values are arbitrary
// but frozen: changing them re-sites every fault.
constexpr std::uint64_t kTagSite = 0x51fe;
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

FaultModel::FaultModel(const FaultParams &params, std::uint64_t seed)
    : params_(params), seed_(mix64(seed))
{
    if (check::armed())
        check_ = std::make_unique<check::LiveIds>(check::LiveIds::Kind::Fault);
}

FaultModel::~FaultModel() = default;

std::uint64_t
FaultModel::hash64(std::uint64_t tag, std::uint64_t a,
                   std::uint64_t b) const
{
    return mix64(mix64(mix64(seed_ ^ tag) + a) + b);
}

std::uint64_t
FaultModel::onCriticalRead(Addr line_addr, Tick at)
{
    if (!enabled())
        return 0;

    // The 0 is the critical-word path's slot in the site hash, frozen
    // like the tags.
    const std::uint64_t site = hash64(kTagSite, 0, line_addr);
    const std::uint64_t seq = ++accessSeq_[site];
    const double u =
        static_cast<double>(hash64(kTagAccess, site, seq) >> 11) *
        0x1.0p-53;
    if (u >= params_.parityFailRate)
        return 0;

    const std::uint64_t fault_id = nextFaultId_++;
    // One flipped bit of a synthesised word must fail byte parity.
    const std::uint64_t payload = hash64(kTagPayload, line_addr, seq);
    const std::uint64_t flip = hash64(kTagFlip, fault_id, line_addr);
    const std::uint64_t corrupted = payload ^ (1ULL << (flip & 63));
    sim_assert(!ecc::ByteParity::check(corrupted,
                                       ecc::ByteParity::encode(payload)));
    if (check_) [[unlikely]]
        check_->add(fault_id, at);
    return fault_id;
}

void
FaultModel::resolve(std::uint64_t fault_id, Tick at)
{
    sim_assert(fault_id != 0);
    if (check_) [[unlikely]]
        check_->remove(fault_id, at);
}

void
FaultModel::checkDrained()
{
    if (check_)
        check_->drain();
}

} // namespace hetsim::fault
