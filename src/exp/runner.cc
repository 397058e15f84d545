/**
 * @file
 * Implementation of the sharded parallel runner.
 */

#include "exp/runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <utility>

#include "obs/perf_counters.hh"
#include "obs/trace_event.hh"
#include "util/logging.hh"

namespace uatm::exp {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t
nsBetween(Clock::time_point from, Clock::time_point to)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            to - from)
            .count());
}

/** UATM_PROGRESS: 0/unset = off, numeric N = every N points,
 *  any other non-"0" value = auto interval. */
std::size_t
envProgressEvery()
{
    const char *env = std::getenv("UATM_PROGRESS");
    if (!env || !*env || std::string_view(env) == "0")
        return 0;
    char *end = nullptr;
    const unsigned long long value =
        std::strtoull(env, &end, 10);
    if (end && *end == '\0' && value > 0)
        return static_cast<std::size_t>(value);
    return 1;
}

/**
 * Replay the run's record into the (single-threaded) tracer
 * as one track per worker: point spans named by their coordinate
 * label, idle gaps between them, all timestamps in microseconds
 * relative to the pool start.
 */
void
emitWorkerSpans(obs::EventTracer &tracer,
                const RunnerTelemetry &telemetry,
                const std::vector<std::uint64_t> &workerStartNs)
{
    const char *idleName = tracer.intern("idle");
    const char *startName = tracer.intern("worker start");
    for (const auto &worker : telemetry.workers) {
        const char *track = tracer.intern(
            "runner worker " + std::to_string(worker.worker));
        std::uint64_t cursorNs =
            worker.worker < workerStartNs.size()
                ? workerStartNs[worker.worker]
                : 0;
        // Instant marker so every worker gets a named track even
        // when it never won a point (short grids, few cores).
        tracer.record(startName, track, cursorNs / 1000, 0,
                      worker.worker);
        for (const auto &point : telemetry.points) {
            if (point.worker != worker.worker)
                continue;
            if (point.startNs > cursorNs) {
                const std::uint64_t gapUs =
                    (point.startNs - cursorNs) / 1000;
                if (gapUs > 0)
                    tracer.record(idleName, track,
                                  cursorNs / 1000, gapUs);
            }
            tracer.record(tracer.intern(point.label), track,
                          point.startNs / 1000,
                          std::max<std::uint64_t>(
                              point.durationNs / 1000, 1),
                          point.index);
            cursorNs = std::max(cursorNs,
                                point.startNs + point.durationNs);
        }
        const std::uint64_t workerEndNs =
            (worker.worker < workerStartNs.size()
                 ? workerStartNs[worker.worker]
                 : 0) +
            worker.lifetimeNs;
        if (workerEndNs > cursorNs) {
            const std::uint64_t gapUs =
                (workerEndNs - cursorNs) / 1000;
            if (gapUs > 0)
                tracer.record(idleName, track, cursorNs / 1000,
                              gapUs);
        }
    }
}

} // namespace

Runner::Runner(RunnerOptions options) : options_(options) {}

unsigned
Runner::effectiveThreads(std::size_t points) const
{
    unsigned threads = options_.threads;
    if (threads == 0) {
        threads = std::thread::hardware_concurrency();
        if (threads == 0)
            threads = 1;
    }
    if (points < threads)
        threads = points ? static_cast<unsigned>(points) : 1;
    return threads;
}

ResultTable
Runner::run(const Scenario &scenario,
            const std::vector<std::string> &value_columns,
            const Kernel &kernel)
{
    UATM_ASSERT(kernel != nullptr, "runner needs a kernel");

    const auto expandStart = Clock::now();
    std::vector<Point> points = scenario.expand();
    const std::uint64_t expandNs =
        nsBetween(expandStart, Clock::now());

    std::vector<std::string> columns = scenario.axisNames();
    columns.insert(columns.end(), value_columns.begin(),
                   value_columns.end());
    ResultTable table(scenario.name(), columns);

    unsigned requested =
        options_.threads ? options_.threads
                         : std::thread::hardware_concurrency();
    if (requested == 0)
        requested = 1;
    const unsigned threads = effectiveThreads(points.size());

    obs::EventTracer &tracer = obs::globalTracer();
    const bool traceArmed = tracer.enabled();
    const bool countersArmed = obs::perfArmed();

    std::vector<std::vector<Cell>> slots(points.size());
    // One failure slot per point keeps the merge deterministic:
    // failures land by index, not by completion order.
    std::vector<std::optional<Status>> errors(points.size());
    std::atomic<std::size_t> next{0};
    std::exception_ptr firstError;
    std::mutex errorMutex;

    // Progress heartbeat: 1 means auto-size the interval to ~5%
    // of the grid so big sweeps print ~20 lines, small ones one.
    std::size_t heartbeatEvery = envProgressEvery();
    if (heartbeatEvery == 1)
        heartbeatEvery =
            std::max<std::size_t>(1, points.size() / 20);
    std::atomic<std::size_t> completed{0};
    std::mutex progressMutex;

    const bool failFast = options_.failFast;
    const unsigned lanes = std::max(threads, 1u);

    // The record lands in slots sized before the pool spawns:
    // point timings by index, like the cells, and worker totals
    // by lane.  A worker writes only the slots it owns, so
    // recording is lock-free and needs no synchronisation beyond
    // the join.  timed[i] stays 0 for a point a fail-fast run
    // skipped or aborted on.
    std::vector<PointTiming> timings(points.size());
    std::vector<char> timed(points.size(), 0);
    std::vector<WorkerTelemetry> laneTelemetry(lanes);
    std::vector<std::uint64_t> laneStartNs(lanes, 0);

    const auto wallStart = Clock::now();

    auto worker = [&](unsigned lane) {
        WorkerTelemetry tel;
        tel.worker = lane;
        const auto lifeStart = Clock::now();
        laneStartNs[lane] = nsBetween(wallStart, lifeStart);
        // Per-worker hardware counters under UATM_PERF, read from
        // the worker thread's own group, the one its kernels'
        // profile scopes read, so the thread opens one group.
        // Unavailability (paranoid, seccomp, no PMU) is recorded,
        // never fatal.
        const obs::PerfCounterGroup *counters =
            countersArmed ? &obs::threadPerfCounters() : nullptr;
        obs::PerfReading counterBegin;
        if (counters && counters->available())
            counterBegin = counters->read();
        while (true) {
            const auto acquireStart = Clock::now();
            std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= points.size())
                break;
            const auto start = Clock::now();
            tel.acquireNs += nsBetween(acquireStart, start);
            bool failed = false;
            std::exception_ptr thrown;
            try {
                auto cells = kernel(points[i]);
                if (cells.ok()) {
                    slots[i] = std::move(cells).value();
                } else {
                    errors[i] = cells.status();
                    failed = true;
                }
            } catch (const StatusError &e) {
                errors[i] = e.status();
                failed = true;
                thrown = std::current_exception();
            } catch (const std::exception &e) {
                errors[i] = Status::error(ErrorCode::KernelError,
                                          e.what());
                failed = true;
                thrown = std::current_exception();
            } catch (...) {
                errors[i] = Status::error(ErrorCode::KernelError,
                                          "unknown exception");
                failed = true;
                thrown = std::current_exception();
            }
            if (failed && failFast) {
                std::lock_guard<std::mutex> lock(errorMutex);
                if (!firstError) {
                    // Rethrow what the kernel actually threw; wrap
                    // status-return failures so they still escape
                    // as an exception.
                    firstError = thrown
                        ? thrown
                        : std::make_exception_ptr(
                              StatusError(*errors[i]));
                }
                // Drain the queue so the pool winds down fast.
                next.store(points.size(),
                           std::memory_order_relaxed);
                break;
            }
            const std::uint64_t durationNs =
                nsBetween(start, Clock::now());
            tel.kernelNs += durationNs;
            ++tel.points;
            timings[i] = PointTiming{
                i, lane, nsBetween(wallStart, start), durationNs, {}};
            timed[i] = 1;
            if (heartbeatEvery) {
                const std::size_t done =
                    completed.fetch_add(
                        1, std::memory_order_relaxed) +
                    1;
                if (done % heartbeatEvery == 0 ||
                    done == points.size()) {
                    const double elapsed =
                        static_cast<double>(nsBetween(
                            wallStart, Clock::now())) /
                        1e9;
                    const double rate =
                        elapsed > 0.0
                            ? static_cast<double>(done) / elapsed
                            : 0.0;
                    const double eta =
                        rate > 0.0
                            ? static_cast<double>(points.size() -
                                                  done) /
                                  rate
                            : 0.0;
                    std::lock_guard<std::mutex> lock(
                        progressMutex);
                    std::fprintf(
                        stderr,
                        "uatm runner [%s]: %zu/%zu points, "
                        "%.0f points/s, ETA %.1fs\n",
                        scenario.name().c_str(), done,
                        points.size(), rate, eta);
                }
            }
        }
        tel.lifetimeNs = nsBetween(lifeStart, Clock::now());
        const std::uint64_t busy = tel.kernelNs + tel.acquireNs;
        tel.idleNs =
            tel.lifetimeNs > busy ? tel.lifetimeNs - busy : 0;
        if (counters && counters->available()) {
            tel.counters = obs::scaleDelta(counterBegin,
                                           counters->read());
        }
        laneTelemetry[lane] = tel;
    };

    unsigned spawned = 0;
    if (threads <= 1) {
        worker(0);
    } else {
        // The tracer's ring is not synchronised.  Suspend it while
        // the pool is alive (kernel-internal record() calls become
        // inline no-ops) and replay the per-worker record as
        // spans from this thread after the join.
        if (traceArmed)
            tracer.setEnabled(false);
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (unsigned t = 0; t < threads; ++t)
            pool.emplace_back(worker, t);
        for (auto &thread : pool)
            thread.join();
        if (traceArmed)
            tracer.setEnabled(true);
        spawned = threads;
    }
    const std::uint64_t wallNs =
        nsBetween(wallStart, Clock::now());

    // The record first, rethrow second: a fail-fast abort must not
    // leave lastStats() describing the previous run.
    stats_ = RunnerTelemetry();
    stats_.scenario = scenario.name();
    stats_.threadsRequested = requested;
    stats_.threadsUsed = spawned;
    stats_.pointCount = points.size();
    stats_.wallNs = wallNs;
    stats_.expandNs = expandNs;
    stats_.workers = std::move(laneTelemetry);
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (errors[i]) {
            stats_.failures.push_back(
                PointFailure{i, points[i].label(), *errors[i]});
        }
        if (timed[i]) {
            timings[i].label = points[i].label();
            stats_.pointLatency.add(
                static_cast<double>(timings[i].durationNs));
            stats_.points.push_back(std::move(timings[i]));
        }
    }
    stats_.pointsFailed = stats_.failures.size();
    if (traceArmed)
        emitWorkerSpans(tracer, stats_, laneStartNs);

    // Log after the join, from one thread, so warn() lines do not
    // interleave.
    for (const auto &failure : stats_.failures) {
        warn("point ", failure.index, " (", failure.label,
             ") failed: ", failure.status.toString());
    }

    if (failFast && firstError)
        std::rethrow_exception(firstError);

    const auto mergeStart = Clock::now();
    for (std::size_t i = 0; i < points.size(); ++i) {
        std::vector<Cell> row;
        row.reserve(columns.size());
        for (const auto &coord : points[i].coords)
            row.push_back(Cell::text(coord.label));
        if (errors[i]) {
            for (std::size_t c = 0; c < value_columns.size(); ++c)
                row.push_back(Cell::error(*errors[i]));
        } else {
            UATM_ASSERT(slots[i].size() == value_columns.size(),
                        "kernel returned ", slots[i].size(),
                        " cells for point ", i, ", expected ",
                        value_columns.size());
            for (auto &cell : slots[i])
                row.push_back(std::move(cell));
        }
        table.addRow(std::move(row));
    }
    stats_.mergeNs = nsBetween(mergeStart, Clock::now());

    return table;
}

} // namespace uatm::exp
