/**
 * @file
 * Implementation of the line-size tradeoff.
 */

#include "linesize/line_tradeoff.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.hh"

namespace uatm {

double
lineMissFactor(const LineDelayModel &model, double line0,
               double line1, double alpha0, double alpha1)
{
    okOrThrow(model.validate());
    UATM_ASSERT(alpha0 >= 0.0 && alpha1 >= 0.0,
                "flush ratios must be non-negative");
    const double a = (1.0 + alpha0) * model.fillTime(line0) - 1.0;
    const double b = (1.0 + alpha1) * model.fillTime(line1) - 1.0;
    if (a <= 0.0 || b <= 0.0) {
        throw StatusError(Status::outOfRange(
            "per-miss cost must exceed the hit cycle for Eq. 13"));
    }
    return a / b;
}

double
requiredHitRatioGain(const LineDelayModel &model, double line0,
                     double line1, double base_miss_ratio,
                     double alpha0, double alpha1)
{
    UATM_ASSERT(base_miss_ratio >= 0.0 && base_miss_ratio <= 1.0,
                "miss ratio must be in [0, 1]");
    const double r =
        lineMissFactor(model, line0, line1, alpha0, alpha1);
    // Eq. 14: dEHR = (1 - r)/(s + 1) with 1/(s+1) = MR of the base.
    return (1.0 - r) * base_miss_ratio;
}

double
reducedDelay(const MissRatioTable &table, const LineDelayModel &model,
             std::uint32_t line0, std::uint32_t line1)
{
    const double mr0 = table.missRatio(line0);
    const double mr1 = table.missRatio(line1);
    // dMR is positive when the larger line actually misses less.
    const double d_mr = mr0 - mr1;
    const double d_emr = requiredHitRatioGain(
        model, static_cast<double>(line0),
        static_cast<double>(line1), mr0);
    // Eq. 19: the weight is Smith's cost of line1.
    const double weight = model.smithLatency() +
                          model.beta * static_cast<double>(line1) /
                              model.busWidth;
    return (d_mr - d_emr) * weight;
}

std::uint32_t
smithOptimalLine(const MissRatioTable &table,
                 const LineDelayModel &model)
{
    std::uint32_t best_line = 0;
    double best = std::numeric_limits<double>::infinity();
    for (const auto &p : table.points()) {
        const double objective = model.smithObjective(
            p.missRatio, static_cast<double>(p.lineBytes));
        if (objective < best) {
            best = objective;
            best_line = p.lineBytes;
        }
    }
    UATM_ASSERT(best_line != 0, "empty miss-ratio table");
    return best_line;
}

std::uint32_t
meanDelayOptimalLine(const MissRatioTable &table,
                     const LineDelayModel &model)
{
    std::uint32_t best_line = 0;
    double best = std::numeric_limits<double>::infinity();
    for (const auto &p : table.points()) {
        const double delay = model.meanMemoryDelay(
            p.missRatio, static_cast<double>(p.lineBytes));
        if (delay < best) {
            best = delay;
            best_line = p.lineBytes;
        }
    }
    UATM_ASSERT(best_line != 0, "empty miss-ratio table");
    return best_line;
}

std::uint32_t
tradeoffOptimalLine(const MissRatioTable &table,
                    const LineDelayModel &model, std::uint32_t line0)
{
    UATM_ASSERT(table.has(line0), "base line size ", line0,
                " is not in the table");
    std::uint32_t best_line = line0;
    double best = 0.0;
    for (const auto &p : table.points()) {
        if (p.lineBytes <= line0)
            continue;
        const double reduction =
            reducedDelay(table, model, line0, p.lineBytes);
        if (reduction > best) {
            best = reduction;
            best_line = p.lineBytes;
        }
    }
    return best_line;
}

std::vector<ReducedDelayPoint>
sweepReducedDelay(const MissRatioTable &table, LineDelayModel model,
                  std::uint32_t line0,
                  const std::vector<double> &betas)
{
    std::vector<ReducedDelayPoint> points;
    for (double beta : betas) {
        model.beta = beta;
        for (const auto &p : table.points()) {
            if (p.lineBytes <= line0)
                continue;
            points.push_back(ReducedDelayPoint{
                beta, p.lineBytes,
                reducedDelay(table, model, line0, p.lineBytes)});
        }
    }
    return points;
}

std::optional<std::pair<double, double>>
beneficialBetaRange(const MissRatioTable &table, LineDelayModel model,
                    std::uint32_t line0, std::uint32_t line1,
                    double beta_lo, double beta_hi)
{
    UATM_ASSERT(beta_lo > 0.0 && beta_hi > beta_lo,
                "invalid beta bracket");
    const int samples = 400;
    double lo = std::numeric_limits<double>::quiet_NaN();
    double hi = std::numeric_limits<double>::quiet_NaN();
    for (int i = 0; i <= samples; ++i) {
        const double beta =
            beta_lo + (beta_hi - beta_lo) * i / samples;
        model.beta = beta;
        const double v = reducedDelay(table, model, line0, line1);
        if (v > 0.0) {
            if (std::isnan(lo))
                lo = beta;
            hi = beta;
        }
    }
    if (std::isnan(lo))
        return std::nullopt;
    return std::make_pair(lo, hi);
}

} // namespace uatm
