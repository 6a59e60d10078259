/**
 * @file
 * Lightweight statistics primitives: scalar counters, averages, gauges
 * and fixed-bucket histograms, grouped into named StatGroups which
 * register into a StatRegistry.
 *
 * Each component owns its raw stat objects and registers *references*
 * to them once (registerStats); the simulator then enumerates the
 * registry for text and JSON reports instead of hand-stitching
 * per-component accessors — the same shape as gem5's stats database and
 * Sniper's stats.h, minus the global singleton (a registry instance is
 * owned by each System so memoised multi-system runs don't alias).
 */

#ifndef HETSIM_COMMON_STATS_HH
#define HETSIM_COMMON_STATS_HH

#include <cstdint>
#include <functional>

#include "common/log.hh"
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace hetsim
{

/** Monotonic event counter. */
class Counter
{
  public:
    void operator+=(std::uint64_t n) { value_ += n; }
    void inc() { value_ += 1; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/** Running sum/count pair exposing a mean. */
class Average
{
  public:
    void
    sample(double v)
    {
        sum_ += v;
        count_ += 1;
    }

    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double sum() const { return sum_; }
    std::uint64_t count() const { return count_; }

    void
    reset()
    {
        sum_ = 0.0;
        count_ = 0;
    }

  private:
    double sum_ = 0.0;
    std::uint64_t count_ = 0;
};

/**
 * Fixed-width bucket histogram over [0, bucketWidth * buckets); samples
 * beyond the top bucket are clamped into it.
 */
class Histogram
{
  public:
    Histogram(double bucket_width, unsigned buckets)
        : width_(bucket_width), counts_(buckets, 0)
    {
    }

    void sample(double v) { sampleIn(bucketOf(v), v); }

    /** The bucket sample(@p v) counts in.  A caller that samples one
     *  constant value on a hot path computes it once. */
    std::size_t
    bucketOf(double v) const
    {
        sim_assert(v >= 0.0,
                   "histogram samples must be non-negative, got ", v);
        const auto idx = static_cast<std::size_t>(v / width_);
        return idx < counts_.size() ? idx : counts_.size() - 1;
    }

    /** sample(@p v) for the @p bucket that bucketOf(v) returned. */
    void
    sampleIn(std::size_t bucket, double v)
    {
        counts_[bucket] += 1;
        total_ += 1;
        sum_ += v;
    }

    std::uint64_t bucket(unsigned i) const { return counts_.at(i); }
    unsigned buckets() const { return static_cast<unsigned>(counts_.size()); }
    double bucketWidth() const { return width_; }
    std::uint64_t total() const { return total_; }
    double sum() const { return sum_; }
    double mean() const { return total_ ? sum_ / total_ : 0.0; }

    /** Value below which @p fraction (0..1) of the samples fall,
     *  interpolated within the containing bucket. */
    double percentile(double fraction) const;

    void reset();

  private:
    double width_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
    double sum_ = 0.0;
};

/**
 * A named collection of statistics for one component.
 *
 * Components register references to their counters/averages/histograms
 * (or value-producing lambdas, for plain member variables) once; the
 * group renders them for reports and supports window snapshots.
 */
class StatGroup
{
  public:
    /** Value-producing callback for stats kept as plain members. */
    using GaugeFn = std::function<double()>;

    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    void addCounter(const std::string &stat, const Counter *c);
    void addAverage(const std::string &stat, const Average *a);
    void addHistogram(const std::string &stat, const Histogram *h);
    void addGauge(const std::string &stat, GaugeFn fn);

    const std::string &name() const { return name_; }

    /** Render "group.stat value" lines; histograms expand to
     *  mean/p50/p95/p99/count sub-lines. */
    std::string render() const;

    /** Map of stat name -> current scalar value (mean for averages;
     *  histograms expand to name.mean/.p50/.p95/.p99/.count). */
    std::map<std::string, double> values() const;

    const std::map<std::string, const Histogram *> &histograms() const
    {
        return histograms_;
    }

  private:
    std::string name_;
    std::map<std::string, const Counter *> counters_;
    std::map<std::string, const Average *> averages_;
    std::map<std::string, const Histogram *> histograms_;
    std::map<std::string, GaugeFn> gauges_;
};

/**
 * Enumeration point for every component's StatGroup.
 *
 * Owned by the simulator (one registry per System); components add
 * their groups in registerStats(...).  Group references stay stable for
 * the registry's lifetime, and a repeated group() with the same name
 * returns the existing group so related components can share one.
 */
class StatRegistry
{
  public:
    /** Group named @p name, created on first use. */
    StatGroup &group(const std::string &name);

    /** Existing group or nullptr. */
    const StatGroup *find(const std::string &name) const;

    /** All groups, ordered by name. */
    std::vector<const StatGroup *> groups() const;

    std::size_t size() const { return byName_.size(); }

    /** Render every group's "group.stat value" lines. */
    std::string render() const;

  private:
    std::vector<std::unique_ptr<StatGroup>> owned_;
    std::map<std::string, StatGroup *> byName_;
};

} // namespace hetsim

#endif // HETSIM_COMMON_STATS_HH
