#include "base/stats.hh"

#include <cmath>

#include "base/logging.hh"

namespace bmhive {

void
SummaryStats::record(double x)
{
    if (n_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    sum_ += x;
    double delta = x - mean_;
    mean_ += delta / double(n_);
    m2_ += delta * (x - mean_);
}

void
SummaryStats::reset()
{
    n_ = 0;
    mean_ = m2_ = min_ = max_ = sum_ = 0.0;
}

double
SummaryStats::variance() const
{
    return n_ > 1 ? m2_ / double(n_ - 1) : 0.0;
}

double
SummaryStats::stddev() const
{
    return std::sqrt(variance());
}

void
SampleSet::record(double x)
{
    samples_.push_back(x);
    sorted_ = false;
}

void
SampleSet::reset()
{
    samples_.clear();
    sorted_ = false;
}

double
SampleSet::mean() const
{
    if (samples_.empty())
        return 0.0;
    double sum = 0.0;
    for (double s : samples_)
        sum += s;
    return sum / double(samples_.size());
}

void
SampleSet::ensureSorted() const
{
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
}

double
SampleSet::percentile(double q) const
{
    panic_if(q < 0.0 || q > 1.0, "quantile out of range: ", q);
    if (samples_.empty())
        return 0.0;
    ensureSorted();
    // Nearest-rank: the smallest sample such that at least q of the
    // distribution is at or below it.
    std::size_t n = samples_.size();
    std::size_t rank = std::size_t(std::ceil(q * double(n)));
    if (rank == 0)
        rank = 1;
    if (rank > n)
        rank = n;
    return samples_[rank - 1];
}

double
SampleSet::min() const
{
    if (samples_.empty())
        return 0.0;
    ensureSorted();
    return samples_.front();
}

double
SampleSet::max() const
{
    if (samples_.empty())
        return 0.0;
    ensureSorted();
    return samples_.back();
}

void
Histogram::add(const Histogram &other)
{
    for (std::size_t b = 0; b < numBuckets; ++b)
        counts_[b] += other.counts_[b];
    total_ += other.total_;
}

void
Histogram::reset()
{
    counts_.fill(0);
    total_ = 0;
}

double
Histogram::bucketLow(std::size_t b)
{
    if (b < exactBelow)
        return double(b);
    // Bucket b is sub-bucket (b mod 4) of the octave [2^e, 2^(e+1)),
    // whose sub-buckets are 2^(e-2) wide.
    int exp = int(b >> subBits) + int(subBits) - 1;
    auto sub = (1u << subBits) + (b & ((1u << subBits) - 1));
    return std::ldexp(double(sub), exp - int(subBits));
}

double
Histogram::percentile(double q) const
{
    panic_if(q < 0.0 || q > 1.0, "quantile out of range: ", q);
    if (total_ == 0)
        return 0.0;
    auto rank = std::uint64_t(std::ceil(q * double(total_)));
    rank = std::clamp<std::uint64_t>(rank, 1, total_);
    std::uint64_t cum = 0;
    std::size_t b = 0;
    while ((cum += counts_[b]) < rank)
        ++b;
    return b < exactBelow ? double(b) : bucketHigh(b);
}

void
Gauge::set(double v)
{
    value_ = v;
    if (!seen_) {
        min_ = max_ = v;
        seen_ = true;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    ++updates_;
}

void
Gauge::reset()
{
    min_ = max_ = value_;
    seen_ = true;
    updates_ = 0;
}

} // namespace bmhive
