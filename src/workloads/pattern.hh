/**
 * @file
 * Access-pattern primitives used to synthesise the memory behaviour of
 * the paper's benchmark suite (SPEC CPU2006, NAS Parallel Benchmarks,
 * STREAM).
 *
 * The paper's appendix explains the criticality biases these primitives
 * reproduce: streaming/strided kernels touch cache lines starting at (or
 * near) word 0, so the critical word of a DRAM fetch is heavily biased
 * toward early words; pointer-chasing codes land anywhere in the line,
 * giving a near-uniform critical-word distribution and serialised misses.
 */

#ifndef HETSIM_WORKLOADS_PATTERN_HH
#define HETSIM_WORKLOADS_PATTERN_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/log.hh"
#include "common/rng.hh"
#include "common/types.hh"

namespace hetsim::workloads
{

/** One synthetic instruction handed to a core. */
struct MicroOp
{
    bool isMem = false;
    bool isWrite = false;
    /** Load depends on the previous load's data (pointer chase): the
     *  core may not issue it until that load completes. */
    bool dependsOnPrev = false;
    Addr addr = 0;
};

/**
 * Sequential walk with a fixed byte stride over a working-set window,
 * wrapping at the end.  Unit (8 B) strides model streaming kernels;
 * larger strides model array-of-struct field walks; strides that are not
 * a multiple of the line size rotate the first-touch word and weaken the
 * word-0 bias (e.g. lbm/milc in Fig. 4).
 *
 * The patterns are plain value types: a MixPattern holds them in one
 * tagged part list and picks one per draw with a branch on its tag.
 */
class StreamPattern
{
  public:
    StreamPattern(Addr base, std::uint64_t window_bytes,
                  std::uint64_t stride_bytes, std::uint64_t start_offset);

    /** Next address (absolute; the base offset is already applied). */
    Addr
    next(Rng &)
    {
        const Addr addr = base_ + pos_;
        pos_ += stride_;
        if (pos_ >= window_)
            pos_ -= window_;
        return addr;
    }

    /** Whether addresses serialise on the previous load. */
    bool dependent() const { return false; }

  private:
    Addr base_;
    std::uint64_t window_;
    std::uint64_t stride_;
    std::uint64_t pos_;
};

/**
 * Dependent random walk over the window: each address is effectively a
 * pointer loaded by the previous access.  The in-line word offset is
 * drawn from an 8-entry distribution so per-benchmark critical-word
 * shapes (e.g. mcf's word-0/word-3 bimodality) can be dialled in.
 *
 * Crucially, the word is a *stable per-line* property (a record's next
 * pointer / hot field lives at a fixed offset), sampled once per line
 * from the distribution via a line hash, with a small jitter
 * probability for occasional interior accesses.  This is exactly the
 * critical-word regularity of the paper's Fig. 3 and what adaptive
 * placement (Section 4.2.5) predicts.
 */
class PointerChasePattern
{
  public:
    /** Probability an access deviates from the line's stable word. */
    static constexpr double kWordJitter = 0.1;

    /** Page-level skew, calibrated to the paper's Section 7.1
     *  measurement that the top ~7.6% of accessed pages capture up to
     *  ~30% of a program's accesses: a quarter of draws land in the
     *  first kHotPageFraction of the window. */
    static constexpr double kHotPageFraction = 0.076;
    static constexpr double kHotAccessFraction = 0.25;

    PointerChasePattern(Addr base, std::uint64_t window_bytes,
                        const std::array<double, kWordsPerLine> &word_dist);

    Addr
    next(Rng &rng)
    {
        static constexpr Rng::Threshold kHotAccess{kHotAccessFraction};
        static constexpr Rng::Threshold kJitter{kWordJitter};
        // Page-skewed line selection (see kHotPageFraction).
        const std::uint64_t line = rng.chance(kHotAccess)
                                       ? rng.below(hotLines_)
                                       : rng.below(windowLines_);
        const unsigned word = rng.chance(kJitter)
                                  ? wordOf53(rng.next() >> 11)
                                  : stableWordOf(line);
        return base_ + line * kLineBytes + word * kWordBytes;
    }

    bool dependent() const { return true; }

    /** The stable word of @p line_index (exposed for tests). */
    unsigned
    stableWordOf(std::uint64_t line_index) const
    {
        // splitmix64 finaliser: a uniform deterministic draw per line, so
        // a line's hot word is fixed for the whole run (critical word
        // regularity, paper Fig. 3).
        std::uint64_t z = line_index + 0x9e3779b97f4a7c15ULL;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        z = z ^ (z >> 31);
        return wordOf53(z >> 11);
    }

  private:
    /** The word a 53-bit uniform draw @p x picks from the distribution
     *  (x * 2^-53 against the cumulative weights, as integer compares). */
    unsigned
    wordOf53(std::uint64_t x) const
    {
        for (unsigned w = 0; w < kWordsPerLine; ++w) {
            if (x < cumCut_[w])
                return w;
        }
        return kWordsPerLine - 1;
    }

    Addr base_;
    std::uint64_t windowLines_;
    std::uint64_t hotLines_; ///< the hot-page prefix, in lines
    /** Rng::Threshold cuts of the cumulative word distribution. */
    std::array<std::uint64_t, kWordsPerLine> cumCut_;
};

/** Independent uniform-random accesses (hash-table style): a pointer
 *  chase whose loads do not serialise. */
class RandomPattern : public PointerChasePattern
{
  public:
    using PointerChasePattern::PointerChasePattern;

    bool dependent() const { return false; }
};

/**
 * Weighted mixture of patterns, held by value in one tagged part list.
 *
 * Each draw picks a part by comparing one 53-bit draw x against integer
 * cuts: part i is the first whose cut exceeds x.  add() sets the cuts
 * so this is exactly the pick of the floating-point scan it replaced,
 * the first part with x * 2^-53 * totalWeight < cumWeight, as
 * Rng::Threshold does for chance().
 */
class MixPattern
{
  public:
    void add(const StreamPattern &pattern, double weight);
    void add(const PointerChasePattern &pattern, double weight);
    void add(const RandomPattern &pattern, double weight);

    Addr
    next(Rng &rng)
    {
        Part &part = parts_[partOf53(rng.next() >> 11)];
        lastDependent_ = part.kind == Kind::Chase;
        if (part.kind == Kind::Stream)
            return part.stream.next(rng);
        return part.chase.next(rng);
    }

    /** Whether the last address came from a dependent pattern. */
    bool dependent() const { return lastDependent_; }

    /** Index of the part the 53-bit draw @p x picks. */
    std::size_t
    partOf53(std::uint64_t x) const
    {
        sim_assert(!cuts_.empty(), "empty mix pattern");
        // A draw past every earlier cut picks the last part, also when
        // x * 2^-53 * totalWeight rounds up to totalWeight: its own cut
        // needs no compare.
        const std::size_t last = cuts_.size() - 1;
        for (std::size_t i = 0; i < last; ++i) {
            if (x < cuts_[i])
                return i;
        }
        return last;
    }

    /** Draws below which partOf53() picks part @p i or an earlier one. */
    std::uint64_t cut(std::size_t i) const { return cuts_.at(i); }

    std::size_t parts() const { return parts_.size(); }

  private:
    enum class Kind : std::uint8_t { Stream, Chase, Random };

    /** One weighted pattern; `kind` names the live union member
     *  (`chase` for both Chase and Random). */
    struct Part
    {
        Part(const StreamPattern &s, double cum)
            : kind(Kind::Stream), cumWeight(cum), stream(s)
        {
        }
        Part(Kind k, const PointerChasePattern &c, double cum)
            : kind(k), cumWeight(cum), chase(c)
        {
        }

        Kind kind;
        double cumWeight;
        union
        {
            StreamPattern stream;
            PointerChasePattern chase;
        };
    };

    /** Checks @p weight and returns the cumulative weight it ends at. */
    double accumulate(double weight);
    /** Recomputes every part's cut for the current totalWeight_. */
    void setCuts();

    std::vector<Part> parts_;
    /** Per part, the draws below which it or an earlier part is
     *  picked; contiguous, for the scan in partOf53(). */
    std::vector<std::uint64_t> cuts_;
    double totalWeight_ = 0;
    bool lastDependent_ = false;
};

/** Uniform in-line word distribution. */
std::array<double, kWordsPerLine> uniformWordDist();

/** Point-mass distribution on one word. */
std::array<double, kWordsPerLine> singleWordDist(unsigned word);

} // namespace hetsim::workloads

#endif // HETSIM_WORKLOADS_PATTERN_HH
