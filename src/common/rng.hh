/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis.
 *
 * A small xoshiro256** implementation is used instead of <random> engines
 * so that (a) workload streams are bit-reproducible across standard-library
 * versions and (b) draw cost stays negligible inside the per-cycle
 * simulation loop.
 */

#ifndef HETSIM_COMMON_RNG_HH
#define HETSIM_COMMON_RNG_HH

#include <cstdint>

namespace hetsim
{

/** xoshiro256** PRNG with splitmix64 seeding. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
    {
        // splitmix64 expansion of the scalar seed into 4 lanes.
        std::uint64_t x = seed;
        for (auto &lane : state_) {
            x += 0x9e3779b97f4a7c15ULL;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            lane = z ^ (z >> 31);
        }
    }

    /** Next raw 64-bit draw. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). @p bound must be non-zero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        // Lemire's multiply-shift range reduction (slightly biased for
        // astronomically large bounds; irrelevant for workload synthesis).
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability @p p of returning true. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

    /**
     * A chance(p) draw reduced to an integer compare, fixed once for a
     * probability that does not change.  uniform() is x * 2^-53 for the
     * 53-bit draw x, so uniform() < p holds exactly when
     * x < ceil(p * 2^53): the same outcome from the same single draw.
     */
    class Threshold
    {
      public:
        constexpr explicit Threshold(double p) : cut_(cutFor(p)) {}

        /** Draws x = next() >> 11 below which chance() is true. */
        constexpr std::uint64_t cut() const { return cut_; }

      private:
        static constexpr std::uint64_t
        cutFor(double p)
        {
            if (!(p > 0)) // also NaN: uniform() < NaN is never true
                return 0;
            if (p >= 1)
                return 1ULL << 53;
            // Exact: scaling by a power of two keeps every mantissa bit.
            const double scaled = p * 0x1.0p53;
            const auto floor = static_cast<std::uint64_t>(scaled);
            return static_cast<double>(floor) < scaled ? floor + 1 : floor;
        }

        std::uint64_t cut_;
    };

    /** chance(p) for the p that @p threshold was built from. */
    bool
    chance(Threshold threshold)
    {
        return (next() >> 11) < threshold.cut();
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
};

} // namespace hetsim

#endif // HETSIM_COMMON_RNG_HH
