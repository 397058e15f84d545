/**
 * @file
 * The line-size arm of the tradeoff methodology (paper Sec. 5.4):
 * the hit-ratio difference a larger line must earn (Eqs. 11-14),
 * the reduced-memory-delay selector (Eqs. 17-19), and its proven
 * agreement with Smith's optimal-line criterion (Eqs. 15/16).
 */

#ifndef UATM_LINESIZE_LINE_TRADEOFF_HH
#define UATM_LINESIZE_LINE_TRADEOFF_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "linesize/delay_model.hh"
#include "linesize/miss_table.hh"

namespace uatm {

/**
 * Eq. 13's miss-count ratio between line sizes at equal execution
 * time: r = ((1+alpha0)(c + (L0/D) beta) - 1) /
 *           ((1+alpha1)(c + (L1/D) beta) - 1).
 * r < 1 when L1 > L0 (each larger-line miss costs more).  Throws
 * StatusError: InvalidArgument for a model that fails validate(),
 * OutOfRange when a per-miss cost does not exceed the hit cycle.
 */
double lineMissFactor(const LineDelayModel &model, double line0,
                      double line1, double alpha0 = 0.0,
                      double alpha1 = 0.0);

/**
 * Eq. 14: the minimum hit-ratio advantage dEHR the larger line L1
 * must deliver over L0 just to break even, given L0's miss ratio.
 */
double requiredHitRatioGain(const LineDelayModel &model, double line0,
                            double line1, double base_miss_ratio,
                            double alpha0 = 0.0, double alpha1 = 0.0);

/**
 * Eq. 19: the reduced memory delay per reference of using L1
 * instead of L0:
 * (dMR - dEMR)(c - 1 + beta L1/D), positive when L1 wins.
 */
double reducedDelay(const MissRatioTable &table,
                    const LineDelayModel &model, std::uint32_t line0,
                    std::uint32_t line1);

/** Smith's optimum (Eq. 16): argmin of MR_L (c' + beta L/D). */
std::uint32_t smithOptimalLine(const MissRatioTable &table,
                               const LineDelayModel &model);

/** Minimum-mean-memory-delay optimum (Eq. 15); identical to
 *  Smith's because hit cycles are common (paper's argument). */
std::uint32_t meanDelayOptimalLine(const MissRatioTable &table,
                                   const LineDelayModel &model);

/**
 * Eq. 18/19 selector: argmax of the reduced delay over lines
 * larger than @p line0 (the base); returns @p line0 when no larger
 * line has a positive reduction.
 */
std::uint32_t tradeoffOptimalLine(const MissRatioTable &table,
                                  const LineDelayModel &model,
                                  std::uint32_t line0);

/** One sample of a Figure 6 panel. */
struct ReducedDelayPoint
{
    double beta;
    std::uint32_t lineBytes;
    double reducedDelay;
};

/**
 * Sweep beta and evaluate Eq. 19 for every table line larger than
 * @p line0 — the series of one Figure 6 panel.
 */
std::vector<ReducedDelayPoint>
sweepReducedDelay(const MissRatioTable &table, LineDelayModel model,
                  std::uint32_t line0,
                  const std::vector<double> &betas);

/**
 * The beta interval over which switching from @p line0 to @p line1
 * has positive reduced delay (Sec. 5.4.2's "beneficial range of
 * bus speeds"); nullopt when it never does within [beta_lo,
 * beta_hi].
 */
std::optional<std::pair<double, double>>
beneficialBetaRange(const MissRatioTable &table, LineDelayModel model,
                    std::uint32_t line0, std::uint32_t line1,
                    double beta_lo, double beta_hi);

} // namespace uatm

#endif // UATM_LINESIZE_LINE_TRADEOFF_HH
