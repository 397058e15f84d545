/**
 * @file
 * Implementation of the design-point equivalence helpers.
 */

#include "core/equivalence.hh"

#include <sstream>

#include "obs/profile.hh"
#include "util/logging.hh"

namespace uatm {

std::string
DesignPoint::describe() const
{
    std::ostringstream os;
    os << machine.describe() << " @ HR=" << hitRatio;
    return os.str();
}

double
designExecutionTime(const DesignPoint &design,
                    const ApplicationShape &app,
                    const ExecutionModelOptions &options)
{
    const Workload w = Workload::fromHitRatio(
        app.instructions, app.dataRefs, design.hitRatio,
        design.machine.lineBytes, app.alpha);
    return executionTimeFS(w, design.machine, options);
}

double
designMeanMemoryDelay(const DesignPoint &design,
                      const ApplicationShape &app,
                      const ExecutionModelOptions &options)
{
    const Workload w = Workload::fromHitRatio(
        app.instructions, app.dataRefs, design.hitRatio,
        design.machine.lineBytes, app.alpha);
    return meanMemoryDelay(w, design.machine,
                           design.machine.lineOverBus(), options);
}

DesignPoint
equivalentDoubleBusDesign(const DesignPoint &base, double alpha)
{
    UATM_PROFILE_SCOPE("core.equivalence");
    TradeoffContext ctx;
    ctx.machine = base.machine;
    ctx.alpha = alpha;
    const double r = missFactorDoubleBus(ctx);
    DesignPoint wide;
    wide.machine = base.machine.withDoubledBus();
    wide.hitRatio = equivalentHitRatio(r, base.hitRatio);
    return wide;
}

DesignPoint
equivalentNarrowBusDesign(const DesignPoint &improved, double alpha)
{
    UATM_PROFILE_SCOPE("core.equivalence");
    UATM_ASSERT(improved.machine.busWidth >= 8,
                "cannot halve a bus narrower than 8 bytes here");
    DesignPoint narrow;
    narrow.machine = improved.machine;
    narrow.machine.busWidth /= 2.0;

    TradeoffContext ctx;
    ctx.machine = narrow.machine;
    ctx.alpha = alpha;
    const double r = missFactorDoubleBus(ctx);
    // Eq. 7 direction: the narrow system must gain
    // (1 - 1/r)(1 - HR2) of hit ratio.
    narrow.hitRatio = improved.hitRatio +
                      hitRatioGainRequired(r, improved.hitRatio);
    if (narrow.hitRatio > 1.0) {
        throw StatusError(Status::outOfRange(
            "no physical hit ratio can compensate for halving "
            "the bus at HR = ", improved.hitRatio));
    }
    return narrow;
}

double
designCacheSize(const DesignPoint &design,
                const CacheSizeModel &size_model)
{
    return size_model.sizeForHitRatio(design.hitRatio);
}

} // namespace uatm
