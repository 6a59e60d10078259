/**
 * @file
 * Set-associative write-back cache with true-LRU replacement, used for
 * both the private L1s (32 KB / 2-way) and the shared L2 (4 MB / 8-way)
 * of the paper's Table 1 hierarchy.
 *
 * The cache is purely functional (tags + dirty bits); access timing is
 * applied by the core/hierarchy layers.
 *
 * The tag store is a structure of arrays: each set's tags are
 * contiguous, an invalid way holds a sentinel tag no line can have (so
 * a lookup is one compare per way), and the LRU stamps and dirty bits
 * sit in their own arrays.
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
        const std::size_t way = findWay(line_addr);
        if (way == kNoWay)
            return false;
        hits_.inc();
        lru_[way] = ++lruClock_;
        if (mark_dirty)
            dirty_[way] = 1;
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

    /** A resident line as setContents() reports it. */
    struct Resident
    {
        Addr lineAddr;
        bool dirty;
    };

    /** The valid lines of set @p set, least recently used first: the
     *  set's whole observable state (tests digest it). */
    std::vector<Resident> setContents(unsigned set) const;

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
    /** Tag of an invalid way.  Real tags are line addresses shifted
     *  right by at least kLineShift, so none reaches it. */
    static constexpr std::uint64_t kNoTag = ~std::uint64_t{0};
    /** findWay()'s "not present". */
    static constexpr std::size_t kNoWay = ~std::size_t{0};

    /** Index of the first way of @p line_addr's set. */
    std::size_t
    setBase(Addr line_addr) const
    {
        const std::uint64_t index = line_addr >> kLineShift;
        return static_cast<std::size_t>(index & setMask_) * params_.ways;
    }

    /** Tag of @p line_addr (the line index above the set bits). */
    std::uint64_t
    tagOf(Addr line_addr) const
    {
        return line_addr >> (kLineShift + setBits_);
    }

    /** Way index holding @p line_addr, or kNoWay. */
    std::size_t
    findWay(Addr line_addr) const
    {
        const std::uint64_t tag = tagOf(line_addr);
        const std::size_t base = setBase(line_addr);
        const std::uint64_t *tags = tags_.data() + base;
        for (unsigned w = 0; w < params_.ways; ++w) {
            if (tags[w] == tag)
                return base + w;
        }
        return kNoWay;
    }

    Params params_;
    unsigned sets_;    ///< a power of two
    unsigned setBits_; ///< log2(sets_)
    std::uint64_t setMask_;
    /** Per way, set-major: its tag (kNoTag when invalid), its LRU stamp
     *  (0 when invalid; valid stamps are unique and >= 1) and its dirty
     *  bit. */
    std::vector<std::uint64_t> tags_;
    std::vector<std::uint64_t> lru_;
    std::vector<std::uint8_t> dirty_;
    std::uint64_t lruClock_ = 0;

    Counter hits_;
    Counter misses_;
};

} // namespace hetsim::cache

#endif // HETSIM_CACHE_CACHE_HH
