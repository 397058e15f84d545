#include "stats.hh"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

double
median(std::vector<double> values)
{
    const std::size_t n = values.size();
    if (n == 0)
        return std::numeric_limits<double>::quiet_NaN();
    std::sort(values.begin(), values.end());
    return n % 2 ? values[n / 2]
                 : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::array<double, 3>
quartiles(std::vector<double> values)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const long ld = static_cast<long>(values.size());
    if (ld < 2)
        return {nan, nan, nan};
    std::sort(values.begin(), values.end());
    // CPython's exclusive method in exact integer arithmetic.
    constexpr long n = 4;
    const long m = ld + 1;
    std::array<double, 3> out{};
    for (long i = 1; i < n; ++i) {
        long j = i * m / n;
        j = std::clamp(j, 1L, ld - 1);
        const long delta = i * m - j * n;
        out[std::size_t(i - 1)] =
            (values[std::size_t(j - 1)] * double(n - delta) +
             values[std::size_t(j)] * double(delta)) /
            double(n);
    }
    return out;
}

double
meanOfMedians(const std::vector<std::vector<double>> &by_kind)
{
    if (by_kind.empty())
        return std::numeric_limits<double>::quiet_NaN();
    double sum = 0;
    for (const std::vector<double> &samples : by_kind)
        sum += median(samples);
    return sum / double(by_kind.size());
}

namespace {

std::size_t
nearestRank(std::size_t n, double p)
{
    // The epsilon keeps p * n exact at products like 0.99 * 1000
    // that binary floating point lands just above an integer.
    const double rank = std::ceil(p * double(n) - 1e-9);
    return std::clamp<std::size_t>(std::size_t(std::max(rank, 1.0)),
                                   1, std::max<std::size_t>(n, 1));
}

} // namespace

std::size_t
samplesBeyond(std::size_t n, double p)
{
    return n == 0 ? 0 : n - nearestRank(n, p);
}

std::optional<double>
percentile(std::vector<double> values, double p)
{
    if (samplesBeyond(values.size(), p) < kMinSamplesBeyond)
        return std::nullopt;
    const std::size_t rank = nearestRank(values.size(), p);
    std::nth_element(values.begin(),
                     values.begin() + long(rank - 1), values.end());
    return values[rank - 1];
}

} // namespace perfbench
