/**
 * @file
 * The unified tradeoff model (paper Sec. 4): for each architectural
 * feature, the miss-count ratio r = Lambda_m'/Lambda_m at equal
 * execution time (Eq. 3 / Table 3) and the hit ratio it trades
 * (Eqs. 6 and 7).
 *
 * Conventions: the *base* system is a full-stalling, write-allocate
 * cache on a non-pipelined memory (the paper's Sec. 5 comparison
 * ground).  r > 1 means the improved system tolerates r times as
 * many misses, i.e. it affords a hit ratio lower by
 * dHR = (r - 1)(1 - HR_base) (Eq. 6).
 */

#ifndef UATM_CORE_TRADEOFF_HH
#define UATM_CORE_TRADEOFF_HH

#include <optional>
#include <string>
#include <vector>

#include "core/machine.hh"
#include "core/workload.hh"

namespace uatm {

/** The architectural features the paper compares (Sec. 5.3). */
enum class TradeFeature
{
    DoubleBus,       ///< D -> 2D (Sec. 4.1)
    PartialStall,    ///< FS -> BL/BNL/NB with measured phi (Sec. 4.2)
    WriteBuffers,    ///< read-bypassing write buffers (Sec. 4.3)
    PipelinedMemory, ///< pipelined fills, Eq. 9 (Sec. 4.4)
};

const char *tradeFeatureName(TradeFeature feature);

/**
 * Shared parameters of one tradeoff evaluation.
 */
struct TradeoffContext
{
    /** Base machine (non-pipelined; D and L as configured). */
    Machine machine;

    /** Flush ratio alpha, assumed equal in both systems
     *  (the paper uses 0.5 throughout Sec. 5). */
    double alpha = 0.5;

    /** OK for a valid Sec. 5.3 base machine; InvalidArgument
     *  otherwise. */
    Status validate() const;
};

/**
 * Per-miss cost A = (phi + (L/D) alpha) mu_m of a generic
 * write-allocate system; the building block of Eq. 3.  For a
 * pipelined machine the cost is (1 + alpha) mu_p and phi is
 * ignored (Sec. 4.4 pipelines full-blocking caches).
 */
double perMissCost(const Machine &machine, double phi, double alpha);

/**
 * Miss-count ratio at equal performance between an arbitrary
 * (machine, phi, alpha) pair; the fully general Eq. 3:
 * r = (A_base - h) / (A_improved - h), with the hit time
 * h = base.hitTime() (one cycle on the paper's machine).  Throws
 * StatusError: OutOfRange when either per-miss cost does not
 * exceed h (the model's validity bound; at mu_m >= 2 it always
 * does), InvalidArgument when the two machines' issue widths
 * differ.
 */
double missFactor(const Machine &base, double phi_base,
                  double alpha_base, const Machine &improved,
                  double phi_improved, double alpha_improved);

/** Table 3 row 1: doubling the data bus width (FS base). */
double missFactorDoubleBus(const TradeoffContext &ctx);

/**
 * Generalised bus widening D -> factor*D (the paper's bus space is
 * {4, 8, 16, 32}, so factor in {2, 4, 8}); factor must keep the
 * bus within the line size.  factor = 2 is Table 3 row 1.
 */
double missFactorWidenBus(const TradeoffContext &ctx, double factor);

/** Table 3 row 2: FS -> partially-stalling with factor phi. */
double missFactorPartialStall(const TradeoffContext &ctx, double phi);

/** Table 3 row 3: read-bypassing write buffers (flush hidden). */
double missFactorWriteBuffers(const TradeoffContext &ctx);

/** Table 3 row 4: pipelined memory with interval q (Eq. 9). */
double missFactorPipelined(const TradeoffContext &ctx, double q);

/**
 * Extension: a victim cache (Jouppi [7]) turns a fraction
 * @p victim_hit_fraction of the base system's misses into short
 * @p swap_penalty_cycles swaps instead of full line fills, so the
 * effective per-miss cost drops to
 * (1-f) A + f p and the usual Eq. 3 ratio applies.
 */
double missFactorVictim(const TradeoffContext &ctx,
                        double victim_hit_fraction,
                        double swap_penalty_cycles);

/**
 * Eq. 6: hit ratio the improved system can give up,
 * dHR = (r - 1)(1 - HR_base); valid while the resulting HR2 >= 0.
 * A hit ratio outside [0, 1] throws StatusError(InvalidArgument),
 * here and in hitRatioGainRequired.
 */
double hitRatioTraded(double r, double base_hit_ratio);

/** HR2 = HR1 - dHR from Eq. 6. */
double equivalentHitRatio(double r, double base_hit_ratio);

/**
 * Eq. 7 (improved system as base): hit ratio the *base* system
 * must gain to match the feature, dHR = (1 - r')(1 - HR2) where
 * r' = 1/r is the inverse miss factor.
 */
double hitRatioGainRequired(double r, double improved_hit_ratio);

/**
 * Eq. 3 specialised to one named feature at the given operating
 * point: @p q is the pipelined fill interval, @p phi the measured
 * stalling factor for the partially-stalling entry (both ignored
 * by the features that don't use them).
 */
double featureMissFactor(const TradeoffContext &ctx,
                         TradeFeature feature, double q, double phi);

/**
 * The mu_m beyond which feature A's miss factor exceeds feature
 * B's (e.g. pipelined vs. double bus, Sec. 5.3).  Returns nullopt
 * when no crossover exists in [mu_lo, mu_hi].
 */
std::optional<double>
crossoverCycleTime(const TradeoffContext &ctx, TradeFeature a,
                   TradeFeature b, double q, double phi, double mu_lo,
                   double mu_hi);

/** One feature's standing in the unified comparison. */
struct FeatureScore
{
    TradeFeature feature;
    std::string name;
    double missFactor;     ///< r
    double hitRatioTraded; ///< dHR at the context's base HR
};

/**
 * Rank features by miss factor at the given operating point
 * (Sec. 5.3).  @p phi_partial is the measured stalling factor for
 * the partially-stalling entry; @p q the pipelined interval.
 */
std::vector<FeatureScore>
rankFeatures(const TradeoffContext &ctx, double base_hit_ratio,
             double phi_partial, double q);

} // namespace uatm

#endif // UATM_CORE_TRADEOFF_HH
