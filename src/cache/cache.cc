#include "cache/cache.hh"

#include <bit>

#include "common/log.hh"

namespace hetsim::cache
{

Cache::Cache(const Params &params) : params_(params)
{
    sim_assert(params_.ways > 0, "cache needs at least one way");
    sim_assert(params_.sizeBytes % (kLineBytes * params_.ways) == 0,
               params_.name, ": size not divisible by way size");
    const std::uint64_t sets = params_.sizeBytes /
                               (kLineBytes * params_.ways);
    // Sets are indexed by mask and shift, never by division.
    if (!std::has_single_bit(sets)) {
        fatal("cache '", params_.name, "' (", params_.sizeBytes, " B, ",
              params_.ways, " ways) has ", sets,
              " sets; the set count must be a power of two");
    }
    sets_ = static_cast<unsigned>(sets);
    setBits_ = static_cast<unsigned>(std::countr_zero(sets));
    setMask_ = sets - 1;
    lines_.resize(static_cast<std::size_t>(sets_) * params_.ways);
}

const Cache::Line *
Cache::findLine(Addr line_addr) const
{
    return const_cast<Cache *>(this)->findLine(line_addr);
}

bool
Cache::probe(Addr line_addr) const
{
    return findLine(line_addr) != nullptr;
}

Cache::Eviction
Cache::fill(Addr line_addr, bool dirty)
{
    sim_assert(!probe(line_addr), params_.name,
               ": fill of already-present line");
    Line *base = setOf(line_addr);

    Line *victim = &base[0];
    for (unsigned w = 0; w < params_.ways; ++w) {
        if (!base[w].valid) {
            victim = &base[w];
            break;
        }
        if (base[w].lru < victim->lru)
            victim = &base[w];
    }

    Eviction ev;
    if (victim->valid) {
        ev.valid = true;
        // Reconstruct the victim's address from tag and set.
        const std::uint64_t set = (line_addr >> kLineShift) & setMask_;
        ev.lineAddr = ((victim->tag << setBits_) | set) << kLineShift;
        ev.dirty = victim->dirty;
    }
    victim->valid = true;
    victim->dirty = dirty;
    victim->tag = tagOf(line_addr);
    victim->lru = ++lruClock_;
    return ev;
}

bool
Cache::invalidate(Addr line_addr, bool *was_present)
{
    Line *line = findLine(line_addr);
    if (was_present)
        *was_present = line != nullptr;
    if (!line)
        return false;
    const bool dirty = line->dirty;
    line->valid = false;
    line->dirty = false;
    return dirty;
}

} // namespace hetsim::cache
