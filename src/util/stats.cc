/**
 * @file
 * Implementation of the statistics accumulators.
 */

#include "util/stats.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace uatm {

void
RunningStats::add(double x)
{
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

void
RunningStats::merge(const RunningStats &other)
{
    if (other.n_ == 0)
        return;
    if (n_ == 0) {
        *this = other;
        return;
    }
    const auto na = static_cast<double>(n_);
    const auto nb = static_cast<double>(other.n_);
    const double delta = other.mean_ - mean_;
    const double total = na + nb;
    mean_ += delta * nb / total;
    m2_ += other.m2_ + delta * delta * na * nb / total;
    n_ += other.n_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

void
RunningStats::reset()
{
    *this = RunningStats();
}

double
RunningStats::min() const
{
    return n_ ? min_ : 0.0;
}

double
RunningStats::max() const
{
    return n_ ? max_ : 0.0;
}

double
RunningStats::variance() const
{
    return n_ >= 2 ? m2_ / static_cast<double>(n_) : 0.0;
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0)
{
    UATM_ASSERT(bins >= 1, "histogram needs at least one bin");
    UATM_ASSERT(hi > lo, "histogram range must be non-empty");
}

void
Histogram::add(double x)
{
    ++total_;
    if (x < lo_) {
        ++underflow_;
        return;
    }
    const auto idx = static_cast<std::size_t>((x - lo_) / width_);
    if (idx >= counts_.size()) {
        ++overflow_;
        return;
    }
    ++counts_[idx];
}

double
Histogram::binLow(std::size_t i) const
{
    UATM_ASSERT(i < counts_.size(), "bin index out of range");
    return lo_ + width_ * static_cast<double>(i);
}

double
Histogram::binFraction(std::size_t i) const
{
    UATM_ASSERT(i < counts_.size(), "bin index out of range");
    if (total_ == 0)
        return 0.0;
    return static_cast<double>(counts_[i]) /
           static_cast<double>(total_);
}

double
Histogram::quantile(double q) const
{
    UATM_ASSERT(q >= 0.0 && q <= 1.0, "quantile must be in [0, 1]");
    if (total_ == 0)
        return lo_;
    const double target = q * static_cast<double>(total_);
    double cum = static_cast<double>(underflow_);
    if (cum >= target)
        return lo_;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        const double next = cum + static_cast<double>(counts_[i]);
        if (next >= target && counts_[i] > 0) {
            const double inside =
                (target - cum) / static_cast<double>(counts_[i]);
            return binLow(i) + inside * width_;
        }
        cum = next;
    }
    return lo_ + width_ * static_cast<double>(counts_.size());
}

} // namespace uatm
