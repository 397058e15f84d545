/**
 * @file
 * Small statistics accumulators used by the simulators and the
 * benchmark harness.
 */

#ifndef UATM_UTIL_STATS_HH
#define UATM_UTIL_STATS_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace uatm {

/**
 * Streaming mean/variance/min/max accumulator (Welford's algorithm).
 */
class RunningStats
{
  public:
    /** Fold one sample into the accumulator. */
    void add(double x);

    /** Merge another accumulator into this one. */
    void merge(const RunningStats &other);

    /** Reset to the empty state. */
    void reset();

    std::size_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    double min() const;
    double max() const;

    /** Population variance; zero for fewer than two samples. */
    double variance() const;

    /** Population standard deviation. */
    double stddev() const;

  private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Fixed-bin histogram over [lo, hi) with overflow/underflow bins.
 */
class Histogram
{
  public:
    /**
     * @param lo lower edge of the first regular bin
     * @param hi upper edge of the last regular bin
     * @param bins number of regular bins, at least one
     */
    Histogram(double lo, double hi, std::size_t bins);

    void add(double x);

    std::size_t bins() const { return counts_.size(); }
    std::uint64_t binCount(std::size_t i) const { return counts_.at(i); }
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }
    std::uint64_t total() const { return total_; }

    /** Lower edge of bin i. */
    double binLow(std::size_t i) const;

    /** Fraction of all samples (incl. under/overflow) in bin i. */
    double binFraction(std::size_t i) const;

    /**
     * Smallest x such that at least fraction q of samples are <= x,
     * linearly interpolated within the containing bin.
     */
    double quantile(double q) const;

  private:
    double lo_;
    double width_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t total_ = 0;
};

} // namespace uatm

#endif // UATM_UTIL_STATS_HH
