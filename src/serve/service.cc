/**
 * @file
 * Implementation of the sweep service.
 */

#include "serve/service.hh"

#include <algorithm>
#include <chrono>
#include <thread>

#include "exp/point_key.hh"
#include "exp/runner.hh"

namespace uatm::serve {

namespace {

double
nanosSince(std::chrono::steady_clock::time_point start)
{
    return double(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
}

} // namespace

SweepService::SweepService(ServiceOptions options)
    : options_(std::move(options)), cache_(options_.cache)
{
    if (options_.threads == 0) {
        options_.threads =
            std::max(1u, std::thread::hardware_concurrency());
    }
    registerStats();
}

void
SweepService::registerStats()
{
    obs::StatGroup serve(registry_, "serve");
    serve.addFormula(
        "inflight",
        [this] { return double(inflight_.load()); },
        "requests admitted and not yet answered", "count");
    serve.addFormula(
        "requests", [this] { return double(requests_.load()); },
        "sweep requests accepted for execution", "count");
    serve.addFormula(
        "requests_rejected",
        [this] { return double(requestsRejected_.load()); },
        "sweep requests bounced by admission control", "count");
    serve.addFormula(
        "requests_failed",
        [this] { return double(requestsFailed_.load()); },
        "sweep requests refused before execution", "count");
    serve.addFormula(
        "points", [this] { return double(pointsTotal_.load()); },
        "experiment points requested", "count");
    serve.addFormula(
        "points_computed",
        [this] { return double(pointsComputed_.load()); },
        "points priced by a kernel (cache misses)", "count");
    serve.addFormula(
        "points_failed",
        [this] { return double(pointsFailed_.load()); },
        "points degraded to typed error cells", "count");
    cache_.registerStats(serve.group("cache"));

    // Histograms go last: the returned references live inside the
    // registry's entry table, which may reallocate on the next
    // registration.  Nothing registers after this constructor.
    // The exposition layer appends the "_ns" unit suffix itself,
    // so the registered names stay unit-free.
    serve.addLatencyHistogram(
        "point", obs::LatencyHistogram(),
        "per-point service time, cache hits and failed points "
        "included",
        "ns");
    serve.addLatencyHistogram(
        "request", obs::LatencyHistogram(),
        "end-to-end sweep request latency", "ns");
    pointNanos_ =
        &registry_.findMutable("serve.point")->histogram;
    requestNanos_ =
        &registry_.findMutable("serve.request")->histogram;
}

Expected<SweepOutcome>
SweepService::runSweep(const SweepRequest &request)
{
    const auto start = std::chrono::steady_clock::now();

    const std::size_t points = request.scenario.pointCount();
    if (points > options_.maxPointsPerRequest) {
        ++requestsFailed_;
        return Status::outOfRange(
            "request sweeps ", points, " points, limit ",
            options_.maxPointsPerRequest,
            " (split the sweep into smaller requests)");
    }

    // Admission: the slot is taken optimistically and returned on
    // every exit path.  fetch_add keeps the check race-free — two
    // requests racing for the last slot cannot both win it.
    if (inflight_.fetch_add(1) >= options_.maxQueueDepth) {
        inflight_.fetch_sub(1);
        ++requestsRejected_;
        return Status::unavailable(
            "sweep queue is full (", options_.maxQueueDepth,
            " requests already admitted); retry later");
    }
    struct Slot
    {
        std::atomic<std::size_t> &counter;
        ~Slot() { counter.fetch_sub(1); }
    } slot{inflight_};

    const ServeKernel *kernel = findServeKernel(request.kernel);
    if (!kernel) {
        ++requestsFailed_;
        std::string known;
        for (const std::string &name : serveKernelNames())
            known += (known.empty() ? "" : ", ") + name;
        return Status::notFound("unknown kernel '", request.kernel,
                                "' (known: ", known, ")");
    }

    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> computed{0};
    const exp::Runner::Kernel cached =
        [this, kernel, &hits,
         &computed](const exp::Point &point)
        -> Expected<std::vector<exp::Cell>> {
        auto key = exp::canonicalPointKey(point, kernel->id);
        if (!key.ok()) {
            // A point the cache cannot address (a workload spec
            // with no method) is refused, never silently cached or
            // priced: the Runner turns this into a typed error cell.
            return key.status();
        }
        if (auto cells = cache_.lookup(key.value())) {
            ++hits;
            return *cells;
        }
        auto cells = kernel->eval(point);
        if (!cells.ok())
            return cells.status(); // failures are not cached
        cache_.insert(key.value(), cells.value());
        ++computed;
        return std::move(cells).value();
    };

    exp::RunnerOptions runner_options;
    runner_options.threads =
        request.threads
            ? std::min(request.threads, options_.threads)
            : options_.threads;

    // One sweep at a time on the pool; the rest of the admitted
    // queue (inflight_) waits here.
    std::unique_lock<std::mutex> run_lock(runMutex_);
    exp::Runner runner(runner_options);
    exp::ResultTable table =
        runner.run(request.scenario, kernel->columns, cached);
    run_lock.unlock();
    // The runner timed every point, failed ones included, on the
    // same histogram shape as serve.point.
    pointNanos_->merge(runner.lastStats().pointLatency);
    const std::size_t failed = runner.lastStats().pointsFailed;

    ++requests_;
    pointsTotal_ += points;
    pointsComputed_ += computed.load();
    pointsFailed_ += failed;
    const double nanos = nanosSince(start);
    requestNanos_->add(nanos);

    return SweepOutcome{std::move(table),
                        points,
                        std::size_t(computed.load()),
                        std::size_t(hits.load()),
                        failed,
                        nanos / 1e9};
}

std::string
SweepService::metricsText() const
{
    return registry_.dumpPrometheus("uatm");
}

} // namespace uatm::serve
