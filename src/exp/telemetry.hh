/**
 * @file
 * The record of one runner run.
 *
 * Every Runner::run fills one RunnerTelemetry: the run's facts
 * (points, failures, threads, wall/expand/merge time), what each
 * worker did (points executed, kernel time, work-acquisition time,
 * idle time, and hardware counter deltas under UATM_PERF) and one
 * timing record per point.  Workers record into their own lanes
 * and the runner merges the lanes at join, so nothing is shared
 * while the pool runs and the merged ResultTable stays
 * byte-identical.
 *
 * The record serialises to a versioned JSON document
 * (RUNNER_*.json) that tools/run_report consumes for the scaling
 * diagnosis (per-worker utilization, load-imbalance index, top-K
 * slowest points, Amdahl serial-fraction fit — see exp/report.hh),
 * and carries a log-bucketed per-point latency histogram, which
 * the daemon merges into its serve.point histogram.
 */

#ifndef UATM_EXP_TELEMETRY_HH
#define UATM_EXP_TELEMETRY_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/perf_counters.hh"
#include "obs/registry.hh"
#include "util/status.hh"

namespace uatm::obs {
class JsonValue;
}

namespace uatm::exp {

/**
 * Bumped whenever the RUNNER_*.json layout changes shape.
 * v2 added the per-worker "counters" object (hardware counter
 * deltas); v3 dropped the "armed" flag, since every run records.
 * v1 and v2 documents still parse (v1 with counters unavailable),
 * and their "armed" key is ignored.
 */
constexpr int kTelemetrySchemaVersion = 3;

/** One failed point of a run. */
struct PointFailure
{
    std::size_t index = 0; ///< position in expansion order
    std::string label;     ///< Point::label() of the failed point
    Status status;         ///< why it failed (never OK)
};

/** One evaluated point, as timed by the worker that ran it. */
struct PointTiming
{
    std::size_t index = 0;       ///< position in expansion order
    unsigned worker = 0;         ///< worker that evaluated it
    std::uint64_t startNs = 0;   ///< offset from the run's start
    std::uint64_t durationNs = 0;
    std::string label;           ///< Point::label() coordinates
};

/** What one worker did across the whole run. */
struct WorkerTelemetry
{
    unsigned worker = 0;
    std::uint64_t points = 0;     ///< points this worker executed
    std::uint64_t kernelNs = 0;   ///< time inside point kernels
    std::uint64_t acquireNs = 0;  ///< claiming work-queue indices
    std::uint64_t idleNs = 0;     ///< lifetime - kernel - acquire
    std::uint64_t lifetimeNs = 0; ///< spawn to exit

    /**
     * Hardware counter deltas over the worker's lifetime (schema
     * v2).  available == false unless UATM_PERF was set and the
     * host allowed perf, and in documents that predate v2.
     */
    obs::PerfCounterValues counters;

    /** Fraction of the worker's lifetime spent in kernels. */
    double utilization() const;
};

/** Everything one run recorded. */
struct RunnerTelemetry
{
    std::string scenario;
    unsigned threadsRequested = 0;
    /** Worker threads actually spawned; 0 = inline serial run. */
    unsigned threadsUsed = 0;
    std::uint64_t pointCount = 0;
    /** Points whose kernel threw or returned an error Status. */
    std::uint64_t pointsFailed = 0;

    std::uint64_t wallNs = 0;    ///< pool spawn to last join
    std::uint64_t expandNs = 0;  ///< Scenario::expand()
    std::uint64_t mergeNs = 0;   ///< slot merge into ResultTable

    /** One entry per worker (a serial run has exactly one). */
    std::vector<WorkerTelemetry> workers;

    /** One entry per point, sorted by point index.  A fail-fast
     *  run leaves out the point that aborted it and the points
     *  it skipped. */
    std::vector<PointTiming> points;

    /** Failed points in point order; not serialized (JSON keeps
     *  only points_failed). */
    std::vector<PointFailure> failures;

    /** Per-point kernel latency, log-bucketed in nanoseconds (the
     *  default LatencyHistogram shape: 1 ns, x2, 64 buckets). */
    obs::LatencyHistogram pointLatency;

    /** Sum of kernelNs over the workers. */
    std::uint64_t kernelNsTotal() const;

    /**
     * max/mean of the per-worker kernel time: 1.0 is a perfectly
     * balanced pool, 2.0 means the slowest worker carried twice
     * the average.  0 when no worker ran anything.
     */
    double loadImbalance() const;

    /**
     * kernelNsTotal / (wallNs * workers): the fraction of the
     * pool's wall-clock capacity spent inside kernels.
     */
    double parallelEfficiency() const;

    /** The versioned RUNNER_*.json document. */
    std::string toJson() const;

    /** Write toJson() to @p path; error Status when unwritable. */
    Status writeJson(const std::string &path) const;

    /**
     * Read a document produced by toJson(), or by a v1 or v2
     * writer; @p document names it in errors.  A value of the
     * wrong kind, or a number its field cannot hold exactly, is a
     * ParseError naming its JSON path.
     */
    static Expected<RunnerTelemetry>
    fromJson(const obs::JsonValue &doc,
             std::string_view document = "telemetry document");

    /** Read and parse one RUNNER_*.json file. */
    static Expected<RunnerTelemetry>
    load(const std::string &path);
};

} // namespace uatm::exp

#endif // UATM_EXP_TELEMETRY_HH
