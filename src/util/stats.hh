/**
 * @file
 * A streaming statistics accumulator.
 */

#ifndef UATM_UTIL_STATS_HH
#define UATM_UTIL_STATS_HH

#include <cstddef>
#include <limits>

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

} // namespace uatm

#endif // UATM_UTIL_STATS_HH
