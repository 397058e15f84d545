/**
 * @file
 * Implementation of the unified tradeoff model.
 */

#include "core/tradeoff.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace uatm {

const char *
tradeFeatureName(TradeFeature feature)
{
    switch (feature) {
      case TradeFeature::DoubleBus:
        return "doubling bus";
      case TradeFeature::PartialStall:
        return "partial stall";
      case TradeFeature::WriteBuffers:
        return "write buffers";
      case TradeFeature::PipelinedMemory:
        return "pipelined mem";
    }
    panic("unknown TradeFeature");
}

Status
TradeoffContext::validate() const
{
    if (Status status = machine.validate(); !status.ok())
        return status;
    if (machine.pipelined) {
        return Status::invalidArgument(
            "the tradeoff base machine must be non-pipelined "
            "(Sec. 5.3 compares against that ground)");
    }
    if (alpha < 0.0 || alpha > 1.0) {
        return Status::invalidArgument(
            "alpha must lie in [0, 1], got ", alpha);
    }
    return Status();
}

double
perMissCost(const Machine &machine, double phi, double alpha)
{
    okOrThrow(machine.validate());
    UATM_ASSERT(phi >= 0.0, "phi must be non-negative");
    if (machine.pipelined) {
        // Full-blocking pipelined system: the fill stalls mu_p and
        // each flushed line costs mu_p, i.e. (1 + alpha) mu_p.
        return (1.0 + alpha) * machine.lineTransferTime();
    }
    return (phi + machine.lineOverBus() * alpha) * machine.cycleTime;
}

namespace {

/** Eqs. 6 and 7 take a hit ratio, which a user can give out of
 *  range (a CLI flag, a scenario file). */
void
requireHitRatio(double hit_ratio)
{
    if (!(hit_ratio >= 0.0 && hit_ratio <= 1.0)) {
        throw StatusError(Status::invalidArgument(
            "hit ratio must be in [0, 1], got ", hit_ratio));
    }
}

/** Eq. 3 from the two per-miss costs: r = (A - h)/(B - h), where h
 *  is the hit time a miss displaces. */
double
costRatio(double a, double b, double h)
{
    if (a <= h || b <= h) {
        // Eq. 3's denominator collapses at the hit-time boundary;
        // a sweep point there must degrade to an error row.
        throw StatusError(Status::outOfRange(
            "per-miss cost must exceed the hit time h = ", h,
            " for Eq. 3 to be meaningful (costs ", a, ", ", b, ")"));
    }
    return (a - h) / (b - h);
}

} // namespace

double
missFactor(const Machine &base, double phi_base, double alpha_base,
           const Machine &improved, double phi_improved,
           double alpha_improved)
{
    const double a = perMissCost(base, phi_base, alpha_base);
    const double b =
        perMissCost(improved, phi_improved, alpha_improved);
    if (improved.issueWidth != base.issueWidth) {
        throw StatusError(Status::invalidArgument(
            "Eq. 3 compares machines of one issue width, got k = ",
            base.issueWidth, " and ", improved.issueWidth));
    }
    return costRatio(a, b, base.hitTime());
}

double
missFactorDoubleBus(const TradeoffContext &ctx)
{
    okOrThrow(ctx.validate());
    const Machine &m = ctx.machine;
    const Machine wide = m.withDoubledBus();
    // FS on both sides: phi = L/D and L/2D respectively (Eq. 3).
    return missFactor(m, m.lineOverBus(), ctx.alpha, wide,
                      wide.lineOverBus(), ctx.alpha);
}

double
missFactorWidenBus(const TradeoffContext &ctx, double factor)
{
    okOrThrow(ctx.validate());
    UATM_ASSERT(factor > 1.0, "widening factor must exceed one");
    const Machine &m = ctx.machine;
    Machine wide = m;
    wide.busWidth *= factor;
    if (wide.busWidth > wide.lineBytes) {
        throw StatusError(Status::invalidArgument(
            "widening the bus ", factor, "x would exceed the ",
            m.lineBytes, "-byte line"));
    }
    return missFactor(m, m.lineOverBus(), ctx.alpha, wide,
                      wide.lineOverBus(), ctx.alpha);
}

double
missFactorPartialStall(const TradeoffContext &ctx, double phi)
{
    okOrThrow(ctx.validate());
    const Machine &m = ctx.machine;
    UATM_ASSERT(phi >= 0.0 && phi <= m.lineOverBus(),
                "phi = ", phi, " outside [0, L/D]");
    return missFactor(m, m.lineOverBus(), ctx.alpha, m, phi,
                      ctx.alpha);
}

double
missFactorWriteBuffers(const TradeoffContext &ctx)
{
    okOrThrow(ctx.validate());
    const Machine &m = ctx.machine;
    // Best case (Table 3): the flush term vanishes; the read path
    // is unchanged, so the improved per-miss cost is (L/D) mu_m.
    return missFactor(m, m.lineOverBus(), ctx.alpha, m,
                      m.lineOverBus(), 0.0);
}

double
missFactorPipelined(const TradeoffContext &ctx, double q)
{
    okOrThrow(ctx.validate());
    const Machine piped = ctx.machine.withPipelining(q);
    return missFactor(ctx.machine, ctx.machine.lineOverBus(),
                      ctx.alpha, piped, /*phi=*/0.0, ctx.alpha);
}

double
missFactorVictim(const TradeoffContext &ctx,
                 double victim_hit_fraction,
                 double swap_penalty_cycles)
{
    okOrThrow(ctx.validate());
    UATM_ASSERT(victim_hit_fraction >= 0.0 &&
                victim_hit_fraction <= 1.0,
                "victim hit fraction must be a probability");
    UATM_ASSERT(swap_penalty_cycles >= 0.0,
                "swap penalty must be non-negative");
    const Machine &m = ctx.machine;
    const double a =
        perMissCost(m, m.lineOverBus(), ctx.alpha);
    if (swap_penalty_cycles >= a) {
        throw StatusError(Status::invalidArgument(
            "a victim swap (", swap_penalty_cycles,
            " cycles) must be cheaper than a full miss (", a,
            " cycles)"));
    }
    const double effective =
        (1.0 - victim_hit_fraction) * a +
        victim_hit_fraction * swap_penalty_cycles;
    return costRatio(a, effective, m.hitTime());
}

double
hitRatioTraded(double r, double base_hit_ratio)
{
    requireHitRatio(base_hit_ratio);
    UATM_ASSERT(r > 0.0, "miss factor must be positive");
    // Eq. 6 with 1/(s+1) = 1 - HR1.
    return (r - 1.0) * (1.0 - base_hit_ratio);
}

double
equivalentHitRatio(double r, double base_hit_ratio)
{
    const double hr2 = base_hit_ratio - hitRatioTraded(
        r, base_hit_ratio);
    // Eq. 6 is only valid for physical systems (HR2 >= 0).
    if (hr2 < 0.0) {
        throw StatusError(Status::outOfRange(
            "equivalent hit ratio is negative (r = ", r,
            ", base HR = ", base_hit_ratio,
            "); outside Eq. 6's validity range"));
    }
    return hr2;
}

double
hitRatioGainRequired(double r, double improved_hit_ratio)
{
    requireHitRatio(improved_hit_ratio);
    UATM_ASSERT(r > 0.0, "miss factor must be positive");
    // Eq. 7: with the improved system as base, the factor is 1/r.
    return (1.0 - 1.0 / r) * (1.0 - improved_hit_ratio);
}

double
featureMissFactor(const TradeoffContext &ctx, TradeFeature feature,
                  double q, double phi)
{
    switch (feature) {
      case TradeFeature::DoubleBus:
        return missFactorDoubleBus(ctx);
      case TradeFeature::PartialStall:
        return missFactorPartialStall(ctx, phi);
      case TradeFeature::WriteBuffers:
        return missFactorWriteBuffers(ctx);
      case TradeFeature::PipelinedMemory:
        return missFactorPipelined(ctx, q);
    }
    panic("unknown TradeFeature");
}

std::optional<double>
crossoverCycleTime(const TradeoffContext &ctx, TradeFeature a,
                   TradeFeature b, double q, double phi,
                   double mu_lo, double mu_hi)
{
    UATM_ASSERT(mu_lo > 0.0 && mu_hi > mu_lo,
                "invalid cycle-time bracket");
    auto gap = [&](double mu) {
        TradeoffContext at = ctx;
        at.machine = ctx.machine.withCycleTime(mu);
        return featureMissFactor(at, a, q, phi) -
               featureMissFactor(at, b, q, phi);
    };
    double lo = mu_lo, hi = mu_hi;
    double glo = gap(lo), ghi = gap(hi);
    if (glo == 0.0)
        return lo;
    if (ghi == 0.0)
        return hi;
    if ((glo > 0.0) == (ghi > 0.0))
        return std::nullopt; // no sign change: no crossover
    for (int iter = 0; iter < 200; ++iter) {
        const double mid = 0.5 * (lo + hi);
        const double gmid = gap(mid);
        if (std::abs(gmid) < 1e-12 || hi - lo < 1e-9)
            return mid;
        if ((gmid > 0.0) == (glo > 0.0)) {
            lo = mid;
            glo = gmid;
        } else {
            hi = mid;
        }
    }
    return 0.5 * (lo + hi);
}

std::vector<FeatureScore>
rankFeatures(const TradeoffContext &ctx, double base_hit_ratio,
             double phi_partial, double q)
{
    std::vector<FeatureScore> scores;
    for (TradeFeature f :
         {TradeFeature::DoubleBus, TradeFeature::PartialStall,
          TradeFeature::WriteBuffers, TradeFeature::PipelinedMemory}) {
        const double r = featureMissFactor(ctx, f, q, phi_partial);
        scores.push_back(FeatureScore{
            f, tradeFeatureName(f), r,
            hitRatioTraded(r, base_hit_ratio)});
    }
    std::sort(scores.begin(), scores.end(),
              [](const FeatureScore &x, const FeatureScore &y) {
                  return x.missFactor > y.missFactor;
              });
    return scores;
}

} // namespace uatm
