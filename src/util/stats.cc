/**
 * @file
 * Implementation of the statistics accumulator.
 */

#include "util/stats.hh"

#include <algorithm>
#include <cmath>

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

} // namespace uatm
