/**
 * @file
 * The repo's standing experiments, re-expressed as scenarios so
 * they all run through the sharded Runner and emit ResultTables:
 * the cache-geometry sweeps, the phi measurement (Figure 1), the
 * Sec. 5.3 feature grid, and the Sec. 5.4 line-size tradeoff.
 *
 * runGeometrySweep is the only geometry-sweep driver: it decides
 * once per sweep between one stack-sim pass (cache/stack_sim) and
 * per-point runCacheSim, and priceGeometryPoint is the per-point
 * kernel the serve layer shares.  The other experiments keep
 * their serial kernel in its home module (cpu/phi_measurement,
 * core/tradeoff, linesize/line_tradeoff); this layer only declares
 * the grid and shards it.  measurePhiAllProfilesParallel returns
 * the same result type as its serial counterpart and is
 * bit-identical to it at any thread count.
 */

#ifndef UATM_EXP_SCENARIOS_HH
#define UATM_EXP_SCENARIOS_HH

#include <cstdint>
#include <vector>

#include "cache/sweep.hh"
#include "core/tradeoff.hh"
#include "cpu/phi_measurement.hh"
#include "exp/runner.hh"
#include "exp/scenario.hh"
#include "linesize/line_tradeoff.hh"

namespace uatm::exp {

// ---------------------------------------------------------------
// Cache geometry sweeps.
// ---------------------------------------------------------------

struct GeometrySweep
{
    enum class Axis : std::uint8_t
    {
        Size, ///< vary CacheConfig::sizeBytes
        Line, ///< vary CacheConfig::lineBytes
    };

    /**
     * Which kernel evaluates the sweep.  Auto picks the
     * single-pass stack-distance engine (cache/stack_sim) whenever
     * the sweep qualifies — size axis, LRU, write-allocate — and
     * logs + counts the fallback otherwise (never silent; see
     * sweepDispatchCounters()).  The merged ResultTable is
     * byte-identical between the two engines at any thread count.
     */
    enum class Engine : std::uint8_t
    {
        Auto,     ///< stack-sim when eligible, else per-point
        PerPoint, ///< force one simulation per grid point
    };

    Axis axis = Axis::Size;
    CacheConfig base;
    WorkloadSpec workload;
    std::vector<std::uint64_t> values;
    std::uint64_t refs = 100000;
    std::uint64_t warmupRefs = 0;
    Engine engine = Engine::Auto;
};

/** The sweep as a declarative scenario (one axis). */
Scenario makeGeometryScenario(const GeometrySweep &spec);

/**
 * Run the sweep on @p runner.  Table columns: the axis ("size" or
 * "line") then hit_ratio / miss_ratio / flush_ratio.  When
 * @p points is non-null it also receives the raw SweepPoints, in
 * axis order.
 */
ResultTable runGeometrySweep(const GeometrySweep &spec,
                             Runner &runner,
                             std::vector<SweepPoint> *points =
                                 nullptr);

/**
 * Price one geometry point on its own: make the point's workload,
 * run runCacheSim over its cache and return the hit_ratio /
 * miss_ratio / flush_ratio cells.  runGeometrySweep's per-point
 * engine and the serve "cache" kernel both call it, so offline and
 * served cells render byte-identically.
 */
Expected<std::vector<Cell>> priceGeometryPoint(const Point &point);

// ---------------------------------------------------------------
// Stalling-factor measurement (Figure 1) over the six profiles.
// ---------------------------------------------------------------

/** One point per SPEC92-like profile (axis "workload"). */
Scenario makePhiScenario(const PhiExperiment &experiment);

/** Parallel drop-in for uatm::measurePhiAllProfiles. */
std::vector<PhiResult>
measurePhiAllProfilesParallel(const PhiExperiment &experiment,
                              unsigned threads = 0);

// ---------------------------------------------------------------
// The Sec. 5.3 feature comparison grid.
// ---------------------------------------------------------------

struct FeatureGrid
{
    /** Operating point; machine.cycleTime is overridden by the
     *  mu_m axis. */
    TradeoffContext ctx;

    /** Base hit ratio HR1 the traded dHR is quoted against. */
    double baseHitRatio = 0.95;

    /** Measured stalling factor for the PartialStall row. */
    double phiPartial = 4.0;

    /** Pipelined fill interval q. */
    double q = 2.0;

    /** The mu_m axis (paper Sec. 5.3 walks 4..32). */
    std::vector<double> cycleTimes = {4, 8, 16, 32};

    /** The features compared; defaults to all four. */
    std::vector<TradeFeature> features = {
        TradeFeature::DoubleBus, TradeFeature::PartialStall,
        TradeFeature::WriteBuffers, TradeFeature::PipelinedMemory};
};

/** mu_m (slow axis) x feature (fast axis) scenario. */
Scenario makeFeatureGridScenario(const FeatureGrid &grid);

/**
 * Evaluate the grid on @p runner.  Columns: mu_m, feature,
 * miss_factor (r, Eq. 3), dhr (Eq. 6), equiv_hr.
 */
ResultTable runFeatureGrid(const FeatureGrid &grid, Runner &runner);

// ---------------------------------------------------------------
// The Sec. 5.4 line-size tradeoff.
// ---------------------------------------------------------------

struct LineTradeoff
{
    /** Cache whose lineBytes is swept (capacity fixed). */
    CacheConfig base;
    WorkloadSpec workload;
    std::vector<std::uint32_t> lineSizes = {8, 16, 32, 64, 128};
    LineDelayModel delay;

    /** Base line L0 of the Eq. 19 selector. */
    std::uint32_t baseLine = 16;

    std::uint64_t refs = 100000;
    std::uint64_t warmupRefs = 0;
};

struct LineTradeoffResult
{
    /** Measured MR(L) at the spec's capacity. */
    MissRatioTable missRatios;

    /** Columns: line, miss_ratio, smith_objective, reduced_delay
     *  (vs baseLine; 0 for the base row). */
    ResultTable table;

    /** Eq. 18/19 recommendation. */
    std::uint32_t recommended = 0;

    /** Smith's optimum (Eq. 16), for the agreement check. */
    std::uint32_t smith = 0;
};

/** Sweep MR(L) on @p runner, then run both selectors on it.  A
 *  failed sweep point throws its Status as a StatusError. */
LineTradeoffResult runLineTradeoff(const LineTradeoff &spec,
                                   Runner &runner);

} // namespace uatm::exp

#endif // UATM_EXP_SCENARIOS_HH
