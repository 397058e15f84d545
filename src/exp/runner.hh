/**
 * @file
 * Sharded parallel scenario runner.
 *
 * Runner::run expands a Scenario into its flat point list and
 * evaluates the points on a fixed-size worker pool.  Each worker
 * pulls the next un-evaluated point (atomic work-stealing index),
 * builds its own trace source from the point's WorkloadSpec, and
 * writes its cells into a slot pre-sized by point index — so the
 * merged ResultTable is byte-identical whether one thread ran the
 * whole grid or eight shared it.
 *
 * Failures are isolated per point: a kernel that throws or returns
 * an error Status marks only its own point as failed.  The other
 * points still run, the failed point's row is emitted with typed
 * error cells ("!invalid_argument"-style), and the failure is
 * counted in RunnerTelemetry::pointsFailed and listed in
 * RunnerTelemetry::failures.  Set RunnerOptions::failFast to
 * restore the old first-failure-aborts-the-run behaviour.
 *
 * Point kernels must be self-contained: no shared mutable state
 * beyond what the Point carries.  The process-wide event tracer
 * (UATM_TRACE) is not thread-safe; a multi-threaded run suspends
 * it while the pool is alive and, after the join, emits one span
 * per point onto a per-worker track from the calling thread — so
 * UATM_TRACE on a parallel sweep yields a per-worker timeline
 * instead of corrupting the ring.  Serial (inline) runs leave the
 * tracer live, preserving the deep engine-internal traces.
 *
 * Every run fills one RunnerTelemetry (exp/telemetry.hh), read
 * back through lastStats(): each worker records what it did —
 * points, kernel/acquire/idle time, one timing per point —
 * lock-free into its own lane, and the lanes are merged at join.
 * Under UATM_PERF each worker also opens a hardware counter group
 * (obs/perf_counters.hh) and records its lifetime counter deltas;
 * otherwise, and on hosts that forbid perf_event_open, the lanes
 * carry counters.available == false and nothing else changes.
 *
 * UATM_PROGRESS=1 adds a stderr heartbeat — done/total, points/s,
 * ETA — that never touches the merged table, so output stays
 * byte-identical.
 */

#ifndef UATM_EXP_RUNNER_HH
#define UATM_EXP_RUNNER_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "exp/result_table.hh"
#include "exp/scenario.hh"
#include "exp/telemetry.hh"
#include "util/status.hh"

namespace uatm::exp {

struct RunnerOptions
{
    /** Worker count; 0 means std::thread::hardware_concurrency(). */
    unsigned threads = 1;

    /**
     * Abort the run on the first failed point instead of isolating
     * it: the first kernel exception is rethrown (after the pool
     * winds down and the record is filled), and a kernel error
     * Status is rethrown as StatusError.
     */
    bool failFast = false;
};

class Runner
{
  public:
    /**
     * Evaluates one point into the value columns' cells.  Plain
     * std::vector<Cell> lambdas still fit (implicit conversion);
     * returning an error Status marks the point failed without
     * the cost of an exception.
     */
    using Kernel =
        std::function<Expected<std::vector<Cell>>(const Point &)>;

    explicit Runner(RunnerOptions options = {});

    /**
     * Evaluate every point of @p scenario.  The returned table's
     * columns are the scenario's axis names followed by
     * @p value_columns; each row is the point's coordinate labels
     * followed by the kernel's cells, in expansion order.  Failed
     * points keep their coordinate labels and get one error cell
     * per value column.
     */
    ResultTable run(const Scenario &scenario,
                    const std::vector<std::string> &value_columns,
                    const Kernel &kernel);

    /** The record of the most recent run(), filled before a
     *  fail-fast rethrow too. */
    const RunnerTelemetry &lastStats() const { return stats_; }

    /** Threads run() would actually use right now. */
    unsigned effectiveThreads(std::size_t points) const;

  private:
    RunnerOptions options_;
    RunnerTelemetry stats_;
};

} // namespace uatm::exp

#endif // UATM_EXP_RUNNER_HH
