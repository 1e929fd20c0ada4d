/**
 * @file
 * Statistics collection: running summary statistics, exact
 * percentile estimation over recorded samples, log-bucketed
 * histograms, and a latency recorder keyed on Ticks.
 */

#ifndef BMHIVE_BASE_STATS_HH
#define BMHIVE_BASE_STATS_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "base/units.hh"

namespace bmhive {

/**
 * Running mean / variance / min / max without storing samples.
 * Welford's online algorithm; numerically stable.
 */
class SummaryStats
{
  public:
    void record(double x);
    void reset();

    std::uint64_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    double variance() const;
    double stddev() const;
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }
    double sum() const { return sum_; }

  private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

/**
 * Stores every sample and computes exact quantiles on demand.
 * Used for the paper's p99 / p99.9 reports (Figs 1 and 11) where
 * tail fidelity matters more than memory.
 */
class SampleSet
{
  public:
    void record(double x);
    void reset();

    std::size_t count() const { return samples_.size(); }
    double mean() const;

    /**
     * Exact quantile by the nearest-rank method.
     * @param q in [0, 1], e.g. 0.999 for the 99.9th percentile.
     */
    double percentile(double q) const;

    double min() const;
    double max() const;

    const std::vector<double> &samples() const { return samples_; }

  private:
    /** Sorts lazily; const because sorting preserves the multiset. */
    void ensureSorted() const;

    mutable std::vector<double> samples_;
    mutable bool sorted_ = false;
};

/**
 * Log-bucketed histogram over non-negative integers (HDR-style):
 * every value 0-7 has its own bucket and each octave above splits
 * into 4 sub-buckets, so a reported percentile overstates the true
 * value by at most 25%, at a bucket's lower edge. record() is a few
 * integer ops into a fixed array and never allocates.
 */
class Histogram
{
  public:
    /** 2^subBits sub-buckets per octave. */
    static constexpr unsigned subBits = 2;
    /** Values below this have a bucket each. */
    static constexpr std::uint64_t exactBelow = 2u << subBits;
    /** Covers the whole uint64 range. */
    static constexpr std::size_t numBuckets = 63u << subBits;

    void
    record(std::uint64_t v)
    {
        ++counts_[bucketOf(v)];
        ++total_;
    }

    /** Merge @p other in, as if its samples were recorded here. */
    void add(const Histogram &other);
    void reset();

    std::uint64_t total() const { return total_; }
    std::uint64_t bucketCount(std::size_t b) const { return counts_[b]; }

    static std::size_t
    bucketOf(std::uint64_t v)
    {
        if (v < exactBelow)
            return std::size_t(v);
        unsigned exp = unsigned(std::bit_width(v)) - 1;
        auto sub = (v >> (exp - subBits)) & ((1u << subBits) - 1);
        return (std::size_t(exp - subBits + 1) << subBits) + sub;
    }

    /** Smallest value in bucket @p b. */
    static double bucketLow(std::size_t b);
    /** One past the largest value in bucket @p b. */
    static double bucketHigh(std::size_t b) { return bucketLow(b + 1); }

    /**
     * Nearest-rank quantile: the upper edge of the bucket holding
     * the rank-q sample, or the value itself when that bucket holds
     * one value (0-7). 0 when empty. @param q in [0, 1].
     */
    double percentile(double q) const;

  private:
    std::array<std::uint64_t, numBuckets> counts_{};
    std::uint64_t total_ = 0;
};

/**
 * Convenience recorder for request latencies measured in Ticks,
 * reporting microseconds (the unit used throughout the paper).
 */
class LatencyRecorder
{
  public:
    void
    record(Tick latency)
    {
        set_.record(ticksToUs(latency));
    }

    std::size_t count() const { return set_.count(); }
    double meanUs() const { return set_.mean(); }
    double p50Us() const { return set_.percentile(0.50); }
    double p90Us() const { return set_.percentile(0.90); }
    double p99Us() const { return set_.percentile(0.99); }
    double p999Us() const { return set_.percentile(0.999); }
    double maxUs() const { return set_.max(); }
    const SampleSet &samples() const { return set_; }
    void reset() { set_.reset(); }

  private:
    SampleSet set_;
};

/**
 * Monotonic named counter, e.g. packets forwarded or VM exits.
 */
class Counter
{
  public:
    void inc(std::uint64_t by = 1) { value_ += by; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * Instantaneous level with min/max watermarks, e.g. queue depth or
 * in-flight I/O. Unlike Counter it can move both directions.
 */
class Gauge
{
  public:
    void set(double v);
    /** Signed adjustment, e.g. add(1) on submit, add(-1) on done. */
    void add(double delta) { set(value_ + delta); }

    double value() const { return value_; }
    /** Lowest value seen since construction or reset(). */
    double minWatermark() const { return seen_ ? min_ : 0.0; }
    /** Highest value seen since construction or reset(). */
    double maxWatermark() const { return seen_ ? max_ : 0.0; }
    std::uint64_t updates() const { return updates_; }

    /** Keeps the current level; watermarks restart from it. */
    void reset();

  private:
    double value_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    bool seen_ = false;
    std::uint64_t updates_ = 0;
};

} // namespace bmhive

#endif // BMHIVE_BASE_STATS_HH
