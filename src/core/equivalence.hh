/**
 * @file
 * Design-point equivalence (paper Sec. 4.5 and Example 1): pairs of
 * (machine, hit ratio) that deliver the same execution time / mean
 * memory delay on a given application.
 */

#ifndef UATM_CORE_EQUIVALENCE_HH
#define UATM_CORE_EQUIVALENCE_HH

#include <string>

#include "core/execution_time.hh"
#include "core/machine.hh"
#include "core/size_model.hh"
#include "core/tradeoff.hh"

namespace uatm {

/** A machine plus the data-cache hit ratio it runs at. */
struct DesignPoint
{
    Machine machine;
    double hitRatio = 0.95;

    std::string describe() const;
};

/**
 * A reference application shape for evaluating design points:
 * instruction count, data references and flush ratio.  The
 * equivalence results are independent of these absolute numbers
 * (Sec. 4.5); they are needed only to evaluate X concretely.
 */
struct ApplicationShape
{
    double instructions = 1e6;
    double dataRefs = 3e5;
    double alpha = 0.5;
};

/** Execution time of @p design on @p app (full-stalling cache). */
double designExecutionTime(const DesignPoint &design,
                           const ApplicationShape &app,
                           const ExecutionModelOptions &options = {});

/** Mean memory delay per data reference of @p design on @p app. */
double designMeanMemoryDelay(
    const DesignPoint &design, const ApplicationShape &app,
    const ExecutionModelOptions &options = {});

/**
 * The design with a doubled bus that matches @p base's execution
 * time: HR2 = HR1 - (r - 1)(1 - HR1) with r from Eq. 3.
 */
DesignPoint equivalentDoubleBusDesign(const DesignPoint &base,
                                      double alpha);

/**
 * The hit ratio a base-bus design needs to match a doubled-bus
 * design at @p improved.hitRatio (Eq. 7 direction).  Throws
 * StatusError(OutOfRange) when that hit ratio would exceed one.
 */
DesignPoint equivalentNarrowBusDesign(const DesignPoint &improved,
                                      double alpha);

/**
 * Example 1 helper: translate a design's hit ratio into a cache
 * size via @p size_model, for the pin-count / chip-area argument of
 * Sec. 5.2.
 */
double designCacheSize(const DesignPoint &design,
                       const CacheSizeModel &size_model);

} // namespace uatm

#endif // UATM_CORE_EQUIVALENCE_HH
