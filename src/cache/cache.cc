#include "cache/cache.hh"

#include <algorithm>
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
    const std::size_t lines = static_cast<std::size_t>(sets_) * params_.ways;
    tags_.assign(lines, kNoTag);
    lru_.assign(lines, 0);
    dirty_.assign(lines, 0);
}

bool
Cache::probe(Addr line_addr) const
{
    return findWay(line_addr) != kNoWay;
}

Cache::Eviction
Cache::fill(Addr line_addr, bool dirty)
{
    const std::uint64_t tag = tagOf(line_addr);
    const std::size_t base = setBase(line_addr);
    // The victim is the first invalid way, else the least recently used
    // one: an invalid way's stamp is 0 and valid stamps are unique and
    // >= 1, so that is the first way with the least stamp.  The same
    // scan checks that the line is not already present.
    std::size_t victim = base;
    bool present = false;
    for (std::size_t way = base; way < base + params_.ways; ++way) {
        present |= tags_[way] == tag;
        if (lru_[way] < lru_[victim])
            victim = way;
    }
    sim_assert(!present, params_.name, ": fill of already-present line");

    Eviction ev;
    if (tags_[victim] != kNoTag) {
        ev.valid = true;
        // Reconstruct the victim's address from tag and set.
        const std::uint64_t set = (line_addr >> kLineShift) & setMask_;
        ev.lineAddr = ((tags_[victim] << setBits_) | set) << kLineShift;
        ev.dirty = dirty_[victim];
    }
    tags_[victim] = tag;
    lru_[victim] = ++lruClock_;
    dirty_[victim] = dirty;
    return ev;
}

bool
Cache::invalidate(Addr line_addr, bool *was_present)
{
    const std::size_t way = findWay(line_addr);
    if (was_present)
        *was_present = way != kNoWay;
    if (way == kNoWay)
        return false;
    const bool dirty = dirty_[way];
    tags_[way] = kNoTag;
    lru_[way] = 0;
    dirty_[way] = 0;
    return dirty;
}

std::vector<Cache::Resident>
Cache::setContents(unsigned set) const
{
    sim_assert(set < sets_, params_.name, ": set ", set, " out of range");
    const std::size_t base = static_cast<std::size_t>(set) * params_.ways;
    std::vector<std::size_t> valid;
    for (std::size_t way = base; way < base + params_.ways; ++way) {
        if (tags_[way] != kNoTag)
            valid.push_back(way);
    }
    std::sort(valid.begin(), valid.end(), [this](std::size_t a,
                                                 std::size_t b) {
        return lru_[a] < lru_[b];
    });
    std::vector<Resident> out;
    for (const std::size_t way : valid) {
        out.push_back(Resident{
            ((tags_[way] << setBits_) | set) << kLineShift,
            dirty_[way] != 0});
    }
    return out;
}

} // namespace hetsim::cache
