#include "workloads/pattern.hh"

#include <algorithm>

#include "common/log.hh"

namespace hetsim::workloads
{

StreamPattern::StreamPattern(Addr base, std::uint64_t window_bytes,
                             std::uint64_t stride_bytes,
                             std::uint64_t start_offset)
    : base_(base), window_(window_bytes), stride_(stride_bytes),
      pos_(start_offset % window_bytes)
{
    sim_assert(window_ >= kLineBytes, "stream window below one line");
    sim_assert(stride_ >= kWordBytes && stride_ % kWordBytes == 0,
               "stream stride must be a positive word multiple");
}

PointerChasePattern::PointerChasePattern(
    Addr base, std::uint64_t window_bytes,
    const std::array<double, kWordsPerLine> &word_dist)
    : base_(base), windowLines_(window_bytes / kLineBytes),
      hotLines_(std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(windowLines_ * kHotPageFraction)))
{
    sim_assert(windowLines_ > 0, "chase window below one line");
    std::array<double, kWordsPerLine> cum_dist;
    double cum = 0;
    for (unsigned w = 0; w < kWordsPerLine; ++w) {
        sim_assert(word_dist[w] >= 0, "negative word weight");
        cum += word_dist[w];
        cum_dist[w] = cum;
    }
    sim_assert(cum > 0, "word distribution sums to zero");
    for (unsigned w = 0; w < kWordsPerLine; ++w)
        cumCut_[w] = Rng::Threshold(cum_dist[w] / cum).cut();
}

double
MixPattern::accumulate(double weight)
{
    sim_assert(weight > 0, "non-positive mix weight");
    totalWeight_ += weight;
    return totalWeight_;
}

void
MixPattern::setCuts()
{
    // x * 2^-53 * totalWeight_ never decreases as x grows (each step is
    // exact or correctly rounded), so the draws x with x * 2^-53 *
    // totalWeight_ < cumWeight are a prefix [0, cut) of [0, 2^53].
    cuts_.clear();
    for (const Part &part : parts_) {
        std::uint64_t lo = 0, hi = 1ULL << 53;
        while (lo < hi) {
            const std::uint64_t mid = lo + (hi - lo) / 2;
            if (static_cast<double>(mid) * 0x1.0p-53 * totalWeight_ <
                part.cumWeight) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        cuts_.push_back(lo);
    }
}

void
MixPattern::add(const StreamPattern &pattern, double weight)
{
    parts_.emplace_back(pattern, accumulate(weight));
    setCuts();
}

void
MixPattern::add(const PointerChasePattern &pattern, double weight)
{
    parts_.emplace_back(Kind::Chase, pattern, accumulate(weight));
    setCuts();
}

void
MixPattern::add(const RandomPattern &pattern, double weight)
{
    parts_.emplace_back(Kind::Random, pattern, accumulate(weight));
    setCuts();
}

std::array<double, kWordsPerLine>
uniformWordDist()
{
    std::array<double, kWordsPerLine> d;
    d.fill(1.0 / kWordsPerLine);
    return d;
}

std::array<double, kWordsPerLine>
singleWordDist(unsigned word)
{
    sim_assert(word < kWordsPerLine, "word index out of range");
    std::array<double, kWordsPerLine> d{};
    d[word] = 1.0;
    return d;
}

} // namespace hetsim::workloads
