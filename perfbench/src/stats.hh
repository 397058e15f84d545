/**
 * @file
 * Order statistics the benchmark reports.  Quartiles follow
 * Python's statistics.quantiles(values, n=4) (its default
 * "exclusive" method), so the spreads printed here are the ones a
 * reader recomputes from the per-run values.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <array>
#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/** A percentile is reported only with this many samples above it. */
constexpr std::size_t kMinSamplesBeyond = 10;

/** Median (mean of the middle two for an even count); NaN when
 *  @p values is empty. */
double median(std::vector<double> values);

/** Q1, Q2, Q3 as statistics.quantiles(values, n=4) computes them;
 *  NaN when fewer than two values. */
std::array<double, 3> quartiles(std::vector<double> values);

/**
 * Mean, over operation kinds, of each kind's median: @p by_kind
 * holds the wall times of every operation of each kind.  Kinds
 * differ in cost, so a median over all operations would fall on
 * the seam between two kinds; a per-kind median leaves a burst of
 * host noise one sample of many.  NaN when a kind has no sample.
 */
double meanOfMedians(const std::vector<std::vector<double>> &by_kind);

/** Samples ranked strictly above the nearest-rank @p p quantile
 *  (rank ceil(p * n)) of @p n samples. */
std::size_t samplesBeyond(std::size_t n, double p);

/**
 * Nearest-rank @p p quantile of @p values, or nullopt when fewer
 * than kMinSamplesBeyond samples lie beyond it: such a tail would
 * be set by a handful of requests.
 */
std::optional<double> percentile(std::vector<double> values,
                                 double p);

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
