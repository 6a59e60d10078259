/**
 * @file
 * Set-associative write-back cache with true-LRU replacement, used for
 * both the private L1s (32 KB / 2-way) and the shared L2 (4 MB / 8-way)
 * of the paper's Table 1 hierarchy.
 *
 * The cache is purely functional (tags + dirty bits); access timing is
 * applied by the core/hierarchy layers.
 */

#ifndef HETSIM_CACHE_CACHE_HH
#define HETSIM_CACHE_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace hetsim::cache
{

class Cache
{
  public:
    struct Params
    {
        std::string name = "cache";
        std::uint64_t sizeBytes = 32 * 1024;
        unsigned ways = 2;
    };

    /** Outcome of an allocation (fill or write-allocate access). */
    struct Eviction
    {
        bool valid = false;   ///< a victim line was evicted
        Addr lineAddr = kAddrInvalid;
        bool dirty = false;
    };

    explicit Cache(const Params &params);

    /** Look up a line; on hit, update LRU and optionally set dirty. */
    bool
    access(Addr line_addr, bool mark_dirty)
    {
        if (hit(line_addr, mark_dirty))
            return true;
        countMiss();
        return false;
    }

    /** access() that leaves a miss uncounted, for a caller that learns
     *  only later whether the access is one (see countMiss()). */
    bool
    hit(Addr line_addr, bool mark_dirty)
    {
        Line *line = findLine(line_addr);
        if (!line)
            return false;
        hits_.inc();
        line->lru = ++lruClock_;
        if (mark_dirty)
            line->dirty = true;
        return true;
    }

    /** Count one miss of an access begun with hit(). */
    void countMiss() { misses_.inc(); }

    /** Tag-only lookup with no LRU side effects. */
    bool probe(Addr line_addr) const;

    /** Install a line (must not be present); returns the victim. */
    Eviction fill(Addr line_addr, bool dirty);

    /** Remove a line if present; returns true if it was dirty. */
    bool invalidate(Addr line_addr, bool *was_present = nullptr);

    const Params &params() const { return params_; }
    unsigned sets() const { return sets_; }

    const Counter &hits() const { return hits_; }
    const Counter &misses() const { return misses_; }

    void
    resetStats()
    {
        hits_.reset();
        misses_.reset();
    }

  private:
    struct Line
    {
        std::uint64_t tag = 0;
        std::uint64_t lru = 0;
        bool valid = false;
        bool dirty = false;
    };

    /** First way of @p line_addr's set. */
    Line *
    setOf(Addr line_addr)
    {
        const std::uint64_t index = line_addr >> kLineShift;
        return &lines_[static_cast<std::size_t>(index & setMask_) *
                       params_.ways];
    }

    /** Tag of @p line_addr (the line index above the set bits). */
    std::uint64_t
    tagOf(Addr line_addr) const
    {
        return line_addr >> (kLineShift + setBits_);
    }

    Line *
    findLine(Addr line_addr)
    {
        const std::uint64_t tag = tagOf(line_addr);
        Line *base = setOf(line_addr);
        for (unsigned w = 0; w < params_.ways; ++w) {
            if (base[w].valid && base[w].tag == tag)
                return &base[w];
        }
        return nullptr;
    }

    const Line *findLine(Addr line_addr) const;

    Params params_;
    unsigned sets_;    ///< a power of two
    unsigned setBits_; ///< log2(sets_)
    std::uint64_t setMask_;
    std::vector<Line> lines_;
    std::uint64_t lruClock_ = 0;

    Counter hits_;
    Counter misses_;
};

} // namespace hetsim::cache

#endif // HETSIM_CACHE_CACHE_HH
