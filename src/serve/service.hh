/**
 * @file
 * The sweep service: parsed requests in, result tables out, with
 * the content-addressed PointCache between the Runner and the
 * kernels.
 *
 * SweepService is the daemon's brain and is deliberately free of
 * HTTP: tests and bench_served drive it in-process, the server
 * (serve/server.hh) merely maps its typed Statuses onto status
 * codes.  One service holds one PointCache, one StatRegistry, and
 * one worker-pool mutex; requests queue on the mutex and bounded
 * admission turns overload into typed errors instead of latency:
 *
 *  - more than maxPointsPerRequest points  -> OutOfRange (413);
 *  - more than maxQueueDepth requests already admitted
 *    (running + waiting)                   -> Unavailable (429).
 *
 * Each point is priced through the cache: canonical key (point_key)
 * -> lookup -> on miss, the kernel runs and the cells are inserted.
 * Key refusal (a workload spec with no method) and kernel
 * failures become per-point error Statuses — the Runner degrades
 * them to typed error cells, and failures are never cached.  Because keys are
 * complete content addresses and cells round-trip with their exact
 * rendered text, a warm request is byte-identical to a cold one.
 */

#ifndef UATM_SERVE_SERVICE_HH
#define UATM_SERVE_SERVICE_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "exp/result_table.hh"
#include "obs/registry.hh"
#include "serve/point_cache.hh"
#include "serve/sweep_request.hh"
#include "util/status.hh"

namespace uatm::serve {

struct ServiceOptions
{
    /** Worker threads per sweep; 0 = hardware concurrency.  A
     *  request's own "threads" field is clamped to this. */
    unsigned threads = 0;

    /** Point-count cap per request; OutOfRange (HTTP 413) beyond
     *  it — a bigger sweep must be split by the caller. */
    std::size_t maxPointsPerRequest = 4096;

    /** Admitted-request cap, running plus waiting; Unavailable
     *  (HTTP 429) beyond it.  0 rejects every request (useful to
     *  drain a daemon or to test the admission path). */
    std::size_t maxQueueDepth = 8;

    PointCacheOptions cache;
};

/** One completed sweep: the table plus its cache accounting. */
struct SweepOutcome
{
    exp::ResultTable table;
    std::size_t points = 0;    ///< rows in the table
    std::size_t computed = 0;  ///< points priced by the kernel
    std::size_t cacheHits = 0; ///< points served from the cache
    std::size_t failed = 0;    ///< points degraded to error cells
    double seconds = 0.0;      ///< wall time inside runSweep
};

class SweepService
{
  public:
    explicit SweepService(ServiceOptions options = {});

    SweepService(const SweepService &) = delete;
    SweepService &operator=(const SweepService &) = delete;

    /**
     * Execute @p request.  Typed errors: OutOfRange when the sweep
     * exceeds maxPointsPerRequest, Unavailable when the admission
     * queue is full, NotFound for an unknown kernel name.  The
     * returned table is byte-identical (render for render) across
     * thread counts and across cold/warm cache states.
     */
    Expected<SweepOutcome> runSweep(const SweepRequest &request);

    PointCache &cache() { return cache_; }

    /** The service's registry: admission/throughput formulas, the
     *  cache group, and the request/point latency histograms.  Do
     *  not register further stats on it — the service holds
     *  pointers into the entry table (see registry.hh on
     *  invalidation). */
    obs::StatRegistry &stats() { return registry_; }

    /** Prometheus exposition of stats(), for GET /metrics. */
    std::string metricsText() const;

    /** Requests currently admitted (running + waiting). */
    std::size_t inflight() const { return inflight_.load(); }

    const ServiceOptions &options() const { return options_; }

  private:
    ServiceOptions options_;
    PointCache cache_;
    obs::StatRegistry registry_;

    /** Serializes sweeps on the worker pool: one sweep runs, the
     *  rest of the admitted queue waits here. */
    std::mutex runMutex_;

    std::atomic<std::size_t> inflight_{0};
    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::uint64_t> requestsRejected_{0};
    std::atomic<std::uint64_t> requestsFailed_{0};
    std::atomic<std::uint64_t> pointsTotal_{0};
    std::atomic<std::uint64_t> pointsComputed_{0};
    std::atomic<std::uint64_t> pointsFailed_{0};

    /** Registered last; pointers stay valid because nothing
     *  registers after the constructor (see stats()). */
    obs::LatencyHistogram *pointNanos_ = nullptr;
    obs::LatencyHistogram *requestNanos_ = nullptr;

    void registerStats();
};

} // namespace uatm::serve

#endif // UATM_SERVE_SERVICE_HH
