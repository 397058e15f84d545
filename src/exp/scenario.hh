/**
 * @file
 * Declarative experiment scenarios.
 *
 * A Scenario is a base machine description (cache, memory, write
 * buffer, CPU feature), a workload spec, and an ordered list of
 * swept axes.  expand() crosses the axes into a flat list of
 * independent Points — the unit of work the parallel Runner shards
 * across threads.  Because each Point carries everything needed to
 * evaluate it (configs by value, workload by spec), evaluation is
 * embarrassingly parallel and the merged results are independent
 * of the thread count.
 *
 * Expansion order is row-major in declaration order: the first
 * declared axis varies slowest, the last fastest — the same order
 * the hand-rolled nested loops this layer replaces produced.
 */

#ifndef UATM_EXP_SCENARIO_HH
#define UATM_EXP_SCENARIO_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "cache/config.hh"
#include "cpu/timing_engine.hh"
#include "exp/workload_spec.hh"
#include "memory/timing.hh"
#include "memory/write_buffer.hh"
#include "util/status.hh"

namespace uatm::exp {

/** One value of one axis, with its display label. */
struct AxisValue
{
    std::string label;
    double value = 0.0;

    /** Label "8192"-style for integral values, "%g" otherwise. */
    static AxisValue ofNumber(double value);
};

/** One resolved coordinate of a Point. */
struct Coord
{
    std::string axis;
    std::string label;
    double value = 0.0;
};

/**
 * One fully-resolved experiment point.  Everything is held by
 * value so a worker thread can evaluate the point without touching
 * shared state.
 */
struct Point
{
    /** Position in expansion order (== merge order). */
    std::size_t index = 0;

    CacheConfig cache;
    MemoryConfig memory;
    WriteBufferConfig writeBuffer;
    CpuConfig cpu;
    WorkloadSpec workload;

    std::uint64_t refs = 0;
    std::uint64_t warmupRefs = 0;

    std::vector<Coord> coords;

    /** Coordinate value of @p axis; NotFound when absent. */
    Expected<double> coord(const std::string &axis) const;

    /** Coordinate label of @p axis; NotFound when absent. */
    Expected<std::string> coordLabel(const std::string &axis) const;

    /** "size=8192 bus=8 workload=nasa7". */
    std::string label() const;
};

class Scenario
{
  public:
    /** Mutates a Point for one value of the axis. */
    using Applier = std::function<void(Point &, const AxisValue &)>;

    explicit Scenario(std::string name,
                      std::string description = "");

    const std::string &name() const { return name_; }
    const std::string &description() const { return description_; }

    // Base configuration, applied to every point before the axis
    // appliers run.
    CacheConfig cache;
    MemoryConfig memory;
    WriteBufferConfig writeBuffer;
    CpuConfig cpu;
    WorkloadSpec workload;

    /** References simulated per point (simulation kernels). */
    std::uint64_t refs = 100000;

    /** Warmup prefix excluded from statistics. */
    std::uint64_t warmupRefs = 0;

    /** Sweep a numeric axis. */
    Scenario &sweep(const std::string &axis,
                    const std::vector<double> &values,
                    Applier apply);

    /** Sweep an axis whose values carry display labels (features,
     *  policies, named candidates...). */
    Scenario &sweepLabeled(const std::string &axis,
                           std::vector<AxisValue> values,
                           Applier apply);

    /** Sweep the workload over Spec92 profile names (the scenario
     *  workload's seed and ifetch flag are kept). */
    Scenario &sweepWorkloads(const std::vector<std::string> &profiles);

    /** Sweep the workload over whole specs — different registered
     *  methods, or one method at different params.  Axis labels
     *  come from WorkloadSpec::shortLabel(). */
    Scenario &sweepWorkloadSpecs(std::vector<WorkloadSpec> specs);

    /** Axis names in declaration order (the coord columns). */
    std::vector<std::string> axisNames() const;

    /** Product of the axis sizes (1 when no axes: one point). */
    std::size_t pointCount() const;

    /** Cross the axes into the flat, ordered point list. */
    std::vector<Point> expand() const;

  private:
    struct Axis
    {
        std::string name;
        std::vector<AxisValue> values;
        Applier apply;
    };

    std::string name_;
    std::string description_;
    std::vector<Axis> axes_;
};

} // namespace uatm::exp

#endif // UATM_EXP_SCENARIO_HH
