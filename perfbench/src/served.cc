/**
 * @file
 * served: an open loop against a uatm_served child process (memory
 * point cache, --threads 2).  Seeded Poisson arrivals go out over
 * at most 4 connections and each latency is timed from the
 * request's due time.  Two phases never overlap: cold requests,
 * each with a fresh workload seed, so every point is computed and
 * inserted; then warm requests repeating cold bodies, so every
 * point is a hit.
 */

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "cache/sweep.hh"
#include "exp/point_key.hh"
#include "exp/runner.hh"
#include "inputs.hh"
#include "record.hh"
#include "serve/http.hh"
#include "serve/point_cache.hh"
#include "serve/service.hh"
#include "serve/sweep_request.hh"
#include "stats.hh"
#include "workloads.hh"

namespace perfbench {

using namespace uatm;

namespace {

// Rates are fixed so the daemon's sweep service at the seed commit
// is about a quarter busy in the cold phase and a fifth in the warm
// one.  Under load on a 4-vCPU Xeon host its serve.request time was
// ~30 ms per cold request and ~0.25 ms per warm one.  At 1000 warm
// requests per second, a quarter, host noise saturated the service
// in some runs.  Every untraced run records the busy share it
// measured (README.md).
constexpr double kColdRate = 8.0;   // requests per second
constexpr double kWarmRate = 800.0; // requests per second
/** Share of --seconds given to the cold phase. */
constexpr double kColdShare = 5.0 / 6.0;
constexpr unsigned kConnections = 4;

/** Latency limits of the SLO, per phase: ~7x and ~30x the seed
 *  commit's p50, so the ratio counts failures and collapses, not
 *  the host's scheduling noise. */
constexpr double kColdLimitMs = 250.0;
constexpr double kWarmLimitMs = 20.0;

const char *const kHost = "127.0.0.1";

/** A uatm_served child: spawned and ready on construction,
 *  terminated and reaped on destruction. */
class Daemon
{
  public:
    Daemon(const std::string &binary, const std::string &dir,
           int index)
    {
        const std::string port_file =
            dir + "/port-" + std::to_string(index);
        const std::string log =
            dir + "/daemon-" + std::to_string(index) + ".log";
        std::remove(port_file.c_str());
        std::vector<std::string> args = {
            binary, "--port=0", "--port-file=" + port_file,
            "--threads=" + std::to_string(kRunnerThreads)};
        std::vector<char *> argv;
        for (std::string &arg : args)
            argv.push_back(arg.data());
        argv.push_back(nullptr);

        const pid_t parent = getpid();
        const std::int64_t start = nowNs();
        pid_ = fork();
        if (pid_ == 0) {
            // The daemon must not outlive this process, however it
            // ends.  Only async-signal-safe calls here.
            prctl(PR_SET_PDEATHSIG, SIGKILL);
            if (getppid() != parent)
                _exit(127);
            const int fd =
                open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
            if (fd >= 0) {
                dup2(fd, 1);
                dup2(fd, 2);
            }
            // Set-up repetitions spawn while the open loop has
            // sockets open; the daemon inherits none of them.
            close_range(3, ~0U, 0);
            execv(binary.c_str(), argv.data());
            _exit(127);
        }
        if (pid_ < 0) {
            pid_ = -1;
            throw std::runtime_error("cannot spawn " + binary);
        }
        try {
            waitUntilReady(port_file, start + 20'000'000'000);
        } catch (...) {
            stop(); // no destructor runs for a throwing constructor
            throw;
        }
        readySeconds_ = double(nowNs() - start) / 1e9;
    }

    ~Daemon() { stop(); }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    pid_t pid() const { return pid_; }
    std::uint16_t port() const { return port_; }
    double readySeconds() const { return readySeconds_; }

  private:
    pid_t pid_ = -1;
    std::uint16_t port_ = 0;
    double readySeconds_ = 0;

    void
    waitUntilReady(const std::string &port_file, std::int64_t give_up)
    {
        while (port_ == 0) {
            std::ifstream in(port_file);
            std::string text((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
            if (!text.empty() && text.back() == '\n')
                port_ = std::uint16_t(std::stoul(text));
            else
                waitOrThrow(give_up);
        }
        for (;;) {
            auto reply = serve::httpFetch(kHost, port_, "GET",
                                          "/healthz");
            if (reply.ok() && reply.value().status == 200)
                return;
            waitOrThrow(give_up);
        }
    }

    /** SIGTERM, then SIGKILL after 5 s; always reaps the child. */
    void
    stop()
    {
        if (pid_ <= 0)
            return;
        kill(pid_, SIGTERM);
        for (int i = 0; i < 500; ++i) {
            if (waitpid(pid_, nullptr, WNOHANG) == pid_) {
                pid_ = -1;
                return;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        kill(pid_, SIGKILL);
        waitpid(pid_, nullptr, 0);
        pid_ = -1;
    }

    void
    waitOrThrow(std::int64_t give_up)
    {
        if (waitpid(pid_, nullptr, WNOHANG) == pid_) {
            pid_ = -1;
            throw std::runtime_error("uatm_served exited at start-up");
        }
        if (nowNs() > give_up)
            throw std::runtime_error("uatm_served did not come up");
        // Poll without sleeping: a timer wake-up on an idle vCPU
        // would add the host's wake latency to setup_s.
        std::this_thread::yield();
    }
};

/** One request of a phase and what came back. */
struct Request
{
    std::size_t body = 0; ///< index into the cold bodies
    double dueS = 0;      ///< seconds from the phase start
    int status = 0;       ///< 0 = transport error
    std::string reply;
    long points = -1, hits = -1, computed = -1;
    double latencyMs = 0; ///< from the due time
    double lagMs = 0;     ///< send time - due time
    double sentToDoneMs = 0;
    bool correct = false;
};

/** A numeric X-Uatm-* header, or -1 when absent or malformed. */
long
headerNumber(const serve::HttpClientResponse &reply, const char *name)
{
    const std::string *value = reply.header(name);
    if (!value || value->empty())
        return -1;
    char *end = nullptr;
    const long number = std::strtol(value->c_str(), &end, 10);
    return *end == '\0' ? number : -1;
}

/** Wait for @p request's due time and send it; @p in_flight, when
 *  given, counts it while it is out. */
void
send(std::uint16_t port, const std::vector<std::string> &bodies,
     Request &request, std::int64_t phase_start,
     std::atomic<int> *in_flight = nullptr)
{
    const std::int64_t due =
        phase_start + std::int64_t(request.dueS * 1e9);
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(due)));
    if (in_flight)
        ++*in_flight;
    const std::int64_t sent = nowNs();
    auto reply = serve::httpFetch(kHost, port, "POST", "/sweep",
                                  bodies[request.body]);
    const std::int64_t done = nowNs();
    if (in_flight)
        --*in_flight;
    request.lagMs = double(sent - due) / 1e6;
    request.latencyMs = double(done - due) / 1e6;
    request.sentToDoneMs = double(done - sent) / 1e6;
    if (!reply.ok())
        return;
    request.status = reply.value().status;
    request.reply = std::move(reply.value().body);
    request.points = headerNumber(reply.value(), "x-uatm-points");
    request.hits = headerNumber(reply.value(), "x-uatm-cache-hits");
    request.computed =
        headerNumber(reply.value(), "x-uatm-points-computed");
}

/** The open loop is quiet when no request is out and none is due
 *  for this long. */
constexpr std::int64_t kQuietNs = 20'000'000;

/** The open loop: each connection takes the next request in due
 *  order, waits for its due time and sends it.  Meanwhile the
 *  calling thread runs @p between, when given, until the last
 *  connection is done, and tells it whether the loop is quiet. */
void
openLoop(std::uint16_t port, const std::vector<std::string> &bodies,
         std::vector<Request> &requests,
         const std::function<void(bool quiet)> &between = {})
{
    std::atomic<std::size_t> next{0};
    std::atomic<unsigned> open{kConnections};
    std::atomic<int> in_flight{0};
    const std::int64_t start = nowNs() + 20'000'000;
    std::vector<std::thread> connections;
    for (unsigned c = 0; c < kConnections; ++c) {
        connections.emplace_back([&] {
            // Wake on time: the default 50 us timer slack would be
            // charged to every warm request.
            prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
            for (std::size_t k = next++; k < requests.size();
                 k = next++)
                send(port, bodies, requests[k], start, &in_flight);
            --open;
        });
    }
    while (between && open.load() > 0) {
        const double now_s = double(nowNs() - start) / 1e9;
        const auto upcoming = std::upper_bound(
            requests.begin(), requests.end(), now_s,
            [](double t, const Request &r) { return t < r.dueS; });
        between(in_flight.load() == 0 &&
                (upcoming == requests.end() ||
                 upcoming->dueS - now_s > double(kQuietNs) / 1e9));
    }
    for (std::thread &connection : connections)
        connection.join();
}

std::vector<Request>
makePhase(const std::vector<double> &due,
          const std::vector<std::size_t> &bodies)
{
    std::vector<Request> requests(due.size());
    for (std::size_t k = 0; k < due.size(); ++k) {
        requests[k].dueS = due[k];
        requests[k].body = bodies[k];
    }
    return requests;
}

/** What `uatm_client --offline` renders for @p body. */
std::string
offlineRendering(const std::string &body)
{
    const serve::SweepRequest request =
        okOrThrow(serve::parseSweepRequest(body));
    const serve::ServeKernel *kernel =
        serve::findServeKernel(request.kernel);
    if (!kernel)
        throw std::runtime_error("no kernel " + request.kernel);
    exp::Runner runner(exp::RunnerOptions{1});
    return runner.run(request.scenario, kernel->columns, kernel->eval)
        .renderNdjson();
}

/** Apply the gates: cold replies equal the offline rendering with
 *  no hits; warm replies equal the cold reply with all hits. */
void
checkPhases(const std::vector<std::string> &bodies,
            std::vector<Request> &cold, std::vector<Request> &warm)
{
    std::vector<std::string> expected(cold.size());
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < 3; ++t) {
        workers.emplace_back([&] {
            for (std::size_t k = next++; k < cold.size(); k = next++) {
                // A body the reference cannot run leaves "" expected,
                // which no 200 reply matches: the request fails.
                try {
                    expected[k] = offlineRendering(bodies[cold[k].body]);
                } catch (const std::exception &e) {
                    std::printf("reference failed for cold request "
                                "%zu: %s\n",
                                k, e.what());
                }
            }
        });
    }
    for (std::thread &worker : workers)
        worker.join();
    const long points = long(kServedPoints);
    for (std::size_t k = 0; k < cold.size(); ++k) {
        Request &r = cold[k];
        r.correct = r.status == 200 && r.reply == expected[k] &&
                    r.points == points && r.hits == 0 &&
                    r.computed == points;
    }
    for (Request &r : warm) {
        const Request &first = cold[r.body];
        r.correct = first.correct && r.status == 200 &&
                    r.reply == first.reply && r.points == points &&
                    r.hits == points && r.computed == 0;
    }
}

/** Due-time latencies of the requests that got a 200. */
std::vector<double>
latencies(const std::vector<Request> &requests)
{
    std::vector<double> out;
    for (const Request &r : requests) {
        if (r.status == 200)
            out.push_back(r.latencyMs);
    }
    return out;
}

/** The @p p latency percentile of a phase, printed with its sample
 *  counts; nullopt (printed as n/a) without 10 samples beyond. */
std::optional<double>
reportPercentile(const char *phase, const std::vector<double> &values,
                 double p)
{
    const auto value = percentile(values, p);
    std::printf("%s latency p%g: %s ms (%zu samples, %zu beyond)\n",
                phase, p * 100,
                value ? std::to_string(*value).c_str() : "n/a",
                values.size(), samplesBeyond(values.size(), p));
    return value;
}

/** serve.request histogram sum (ns) from the daemon's /metrics. */
double
daemonRequestNs(std::uint16_t port)
{
    auto reply = serve::httpFetch(kHost, port, "GET", "/metrics");
    if (!reply.ok() || reply.value().status != 200)
        throw std::runtime_error("cannot scrape /metrics");
    std::istringstream text(reply.value().body);
    const std::string name = "uatm_serve_request_ns_sum ";
    for (std::string line; std::getline(text, line);) {
        if (line.rfind(name, 0) == 0)
            return std::stod(line.substr(name.size()));
    }
    throw std::runtime_error("no serve.request histogram in /metrics");
}

/** In-process replay of one request's calls, one span each.
 *  Returns the NDJSON the replay renders. */
std::string
replayTraced(const std::string &body, serve::PointCache &cache,
             exp::Runner &runner, SpanRecorder &spans,
             std::uint64_t op)
{
    serve::SweepRequest request;
    {
        ScopedSpan span(spans, "serve.parse", op);
        request = okOrThrow(serve::parseSweepRequest(body));
    }
    const serve::ServeKernel *kernel =
        serve::findServeKernel(request.kernel);
    exp::ResultTable table;
    {
        ScopedSpan root(spans, "op", op);
        ScopedSpan dispatch(spans, "exp.dispatch", op, root.id());
        const std::int64_t parent = dispatch.id();
        table = runner.run(
            request.scenario, kernel->columns,
            [&](const exp::Point &point)
                -> Expected<std::vector<exp::Cell>> {
                std::string key;
                {
                    ScopedSpan span(spans, "exp.point_key", op, parent);
                    key = okOrThrow(
                        exp::canonicalPointKey(point, kernel->id));
                }
                {
                    ScopedSpan span(spans, "serve.cache_lookup", op,
                                    parent);
                    if (auto cells = cache.lookup(key))
                        return *cells;
                }
                Trace buffer;
                {
                    ScopedSpan span(spans, "trace.gen", op, parent);
                    buffer =
                        fillTrace(*okOrThrow(point.workload.make()),
                                  point.refs + point.warmupRefs);
                }
                std::vector<exp::Cell> cells;
                {
                    ScopedSpan span(spans, "cache.sim", op, parent);
                    const CacheRunResult run =
                        runCacheSim(point.cache, buffer, point.refs,
                                    point.warmupRefs);
                    cells = {exp::Cell::num(run.hitRatio(), 6),
                             exp::Cell::num(run.missRatio(), 6),
                             exp::Cell::num(run.flushRatio(), 6)};
                }
                ScopedSpan span(spans, "serve.cache_insert", op, parent);
                cache.insert(key, cells);
                return cells;
            });
    }
    ScopedSpan span(spans, "exp.ndjson", op);
    std::string ndjson;
    for (std::size_t row = 0; row < table.rows(); ++row) {
        ndjson += table.renderNdjsonRow(row);
        ndjson += '\n';
    }
    return ndjson;
}

/** What one traced phase measured besides the spans. */
struct TracedPhase
{
    double daemonNs = 0;  ///< the daemon's request time, from /metrics
    double serviceNs = 0; ///< untraced in-process runSweep time
};

/**
 * Traced run: the same schedule, one request at a time.  Each
 * request goes to the daemon, then runs untraced through an
 * in-process SweepService in the same cache state (the operation
 * time the ledger must match), then is replayed split into spans.
 */
TracedPhase
runTracedPhase(const Daemon &daemon,
               const std::vector<std::string> &bodies,
               std::vector<Request> &requests,
               serve::SweepService &service, serve::PointCache &cache,
               exp::Runner &runner, SpanRecorder &spans,
               std::uint64_t first_op, std::uint64_t &replay_mismatches)
{
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    TracedPhase phase;
    const double before = daemonRequestNs(daemon.port());
    const std::int64_t start = nowNs() + 20'000'000;
    for (std::size_t k = 0; k < requests.size(); ++k) {
        Request &r = requests[k];
        send(daemon.port(), bodies, r, start);
        const serve::SweepRequest request =
            okOrThrow(serve::parseSweepRequest(bodies[r.body]));
        std::string untraced, replayed;
        const auto runUntraced = [&] {
            const std::int64_t t0 = nowNs();
            const serve::SweepOutcome outcome =
                okOrThrow(service.runSweep(request));
            phase.serviceNs += double(nowNs() - t0);
            untraced = outcome.table.renderNdjson();
        };
        // Whichever run comes first after the reply pays for waking
        // the host's idle CPUs, which on a warm request is a large
        // share of its time, so the order alternates.
        if (k % 2 == 0)
            runUntraced();
        replayed = replayTraced(bodies[r.body], cache, runner, spans,
                                first_op + k);
        if (k % 2 == 1)
            runUntraced();
        replay_mismatches +=
            replayed == r.reply && replayed == untraced ? 0 : 1;
    }
    phase.daemonNs = daemonRequestNs(daemon.port()) - before;
    return phase;
}

/** Client latency from send to reply, summed (ns). */
double
clientNs(const std::vector<Request> &requests)
{
    double total = 0;
    for (const Request &r : requests)
        total += r.sentToDoneMs * 1e6;
    return total;
}

void
reportTraced(WorkloadResult &result, const std::vector<Request> &cold,
             const std::vector<Request> &warm,
             const SpanRecorder &spans, const TracedPhase &cold_phase,
             const TracedPhase &warm_phase)
{
    Ledger cl = ledgerOf(spans, 0, cold.size());
    Ledger wl = ledgerOf(spans, cold.size());
    cl.opNs = cold_phase.serviceNs;
    wl.opNs = warm_phase.serviceNs;
    const double warm_daemon_ns = warm_phase.daemonNs;
    result.note("cold_daemon_ms",
                std::to_string(cold_phase.daemonNs /
                               double(cold.size()) / 1e6));
    result.note("warm_daemon_ms",
                std::to_string(warm_daemon_ns / double(warm.size()) /
                               1e6));
    const double cold_e2e = clientNs(cold);
    const double warm_e2e = clientNs(warm);
    printLedger("served/cold", cl, cold_e2e);
    printLedger("served/warm", wl, warm_e2e);

    const double pulled = double(cold.size() * kServedPoints) *
                          double(kServedRefs + kServedWarmup);
    std::vector<double> lag_ms;
    double warm_hits = 0, warm_points = 0;
    for (const Request &r : warm) {
        warm_hits += double(std::max(r.hits, 0L));
        warm_points += double(std::max(r.points, 0L));
    }
    for (const auto *phase : {&cold, &warm}) {
        for (const Request &r : *phase)
            lag_ms.push_back(r.lagMs);
    }
    const auto perCallUs = [](const Ledger &l, const char *name) {
        const auto it = l.count.find(name);
        return it == l.count.end()
                   ? 0.0
                   : l.duration(name) / double(it->second) / 1e3;
    };
    const double warm_rows = double(warm.size() * kServedPoints);
    reportLayers(
        result,
        {{"trace.gen_ns_per_ref", cl.duration("trace.gen") / pulled},
         {"trace.share", cl.share("trace.gen", cold_e2e)},
         {"cache.sim_ns_per_ref", cl.duration("cache.sim") / pulled},
         {"cache.share", cl.share("cache.sim", cold_e2e)},
         {"serve.cache_insert_us",
          perCallUs(cl, "serve.cache_insert")},
         {"exp.dispatch_us_per_op",
          wl.self("exp.dispatch") / double(warm.size()) / 1e3},
         {"exp.share", (wl.self("exp.dispatch") +
                        wl.self("exp.point_key") +
                        wl.self("exp.ndjson")) /
                           warm_e2e},
         {"exp.point_key_us", perCallUs(wl, "exp.point_key")},
         {"exp.ndjson_us_per_row",
          wl.duration("exp.ndjson") / warm_rows / 1e3},
         {"serve.parse_us", perCallUs(wl, "serve.parse")},
         {"serve.cache_lookup_us",
          perCallUs(wl, "serve.cache_lookup")},
         {"serve.share",
          (wl.self("serve.parse") + wl.self("serve.cache_lookup")) /
              warm_e2e},
         {"serve.hit_ratio",
          warm_points > 0 ? warm_hits / warm_points : 0.0},
         {"serve.daemon_ms", warm_daemon_ns / double(warm.size()) / 1e6},
         {"serve.transport_ms",
          (warm_e2e - warm_daemon_ns) / double(warm.size()) / 1e6},
         {"loadgen.lag_ms_p99",
          percentile(lag_ms, 0.99).value_or(
              *std::max_element(lag_ms.begin(), lag_ms.end()))}},
        std::max(cl.residualShare(), wl.residualShare()),
        (cl.rootNs + wl.rootNs) / (cl.opNs + wl.opNs) - 1.0);
}

} // namespace

WorkloadResult
runServed(const RunConfig &config)
{
    WorkloadResult result;
    const std::string dir = config.workDir;

    // The daemon that serves the run.  Set-up is sampled during the
    // cold phase, at quiet moments of the open loop: another daemon
    // spawned until /healthz answers, then stopped.  A spawn that
    // overlapped a cold request would time the request's work too.
    auto daemon = std::make_unique<Daemon>(config.servedBinary, dir, 0);
    int spawned = 1;
    SetupSamples setup;
    const auto sampleSetup = [&](bool quiet) {
        if (quiet)
            setup.poll([&] {
                const Daemon probe(config.servedBinary, dir, spawned++);
                return probe.readySeconds();
            });
        std::this_thread::sleep_for(std::chrono::nanoseconds(
            std::clamp<std::int64_t>(setup.untilDueNs(), 1'000'000,
                                     50'000'000)));
    };

    const double cold_s = config.seconds * kColdShare;
    const double warm_s = config.seconds - cold_s;
    const std::vector<double> cold_due =
        poissonSchedule(config.seed, 0, kColdRate, cold_s);
    const std::vector<double> warm_due =
        poissonSchedule(config.seed, 1, kWarmRate, warm_s);
    std::vector<std::string> bodies;
    std::vector<std::size_t> cold_bodies;
    for (std::size_t k = 0; k < cold_due.size(); ++k) {
        bodies.push_back(coldBody(config.seed, k));
        cold_bodies.push_back(k);
    }
    std::vector<Request> cold = makePhase(cold_due, cold_bodies);
    std::vector<Request> warm = makePhase(
        warm_due,
        warmDraws(config.seed, warm_due.size(), cold_due.size()));

    NoiseProbe noise;
    SpanRecorder spans;
    std::uint64_t replay_mismatches = 0;
    TracedPhase cold_phase, warm_phase;
    if (!config.traced) {
        // How busy the daemon's sweep service was in each phase, for
        // the run record: its request time, per request and per
        // second of the phase.
        const auto phaseRecord = [&](const char *name, double ns,
                                     std::size_t requests,
                                     double seconds) {
            result.note(std::string(name) + "_daemon_ms",
                        std::to_string(ns / double(requests) / 1e6));
            result.note(std::string(name) + "_daemon_busy_share",
                        std::to_string(ns / (seconds * 1e9)));
        };
        const double at_start = daemonRequestNs(daemon->port());
        openLoop(daemon->port(), bodies, cold, sampleSetup);
        const double after_cold = daemonRequestNs(daemon->port());
        openLoop(daemon->port(), bodies, warm);
        const double after_warm = daemonRequestNs(daemon->port());
        phaseRecord("cold", after_cold - at_start, cold.size(), cold_s);
        phaseRecord("warm", after_warm - after_cold, warm.size(),
                    warm_s);
    } else {
        serve::ServiceOptions options;
        options.threads = kRunnerThreads;
        serve::SweepService service(options);
        serve::PointCache cache;
        exp::Runner runner(exp::RunnerOptions{kRunnerThreads});
        cold_phase = runTracedPhase(*daemon, bodies, cold, service, cache,
                                    runner, spans, 0, replay_mismatches);
        warm_phase = runTracedPhase(*daemon, bodies, warm, service, cache,
                                    runner, spans, cold.size(),
                                    replay_mismatches);
    }
    const double rss = peakRssMiB(daemon->pid());
    result.note("daemon_ctx_switches_voluntary",
                std::to_string(procStatusField(
                    daemon->pid(), "voluntary_ctxt_switches")));
    result.note("daemon_ctx_switches_involuntary",
                std::to_string(procStatusField(
                    daemon->pid(), "nonvoluntary_ctxt_switches")));
    daemon.reset();
    for (auto &[key, value] : noise.stop())
        result.note(key, value);

    checkPhases(bodies, cold, warm);
    std::size_t met_slo = 0;
    for (const auto &[phase, limit] :
         {std::pair{&cold, kColdLimitMs}, std::pair{&warm, kWarmLimitMs}}) {
        for (const Request &r : *phase) {
            ++result.attempted;
            result.failed += r.correct ? 0 : 1;
            met_slo += r.correct && r.latencyMs <= limit;
        }
    }
    if (replay_mismatches) {
        std::printf("MISMATCH: %llu in-process replay(s) rendered "
                    "other bytes than the daemon or the service\n",
                    static_cast<unsigned long long>(replay_mismatches));
        result.correct = false;
    }
    if (result.failed)
        std::printf("FAILED: %llu of %llu requests failed a gate\n",
                    static_cast<unsigned long long>(result.failed),
                    static_cast<unsigned long long>(result.attempted));
    result.correct = result.correct && result.failed == 0;

    std::vector<double> lag;
    for (const auto &[name, phase] :
         {std::pair{"cold", &cold}, std::pair{"warm", &warm}}) {
        std::vector<double> phase_lag;
        for (const Request &r : *phase)
            phase_lag.push_back(r.lagMs);
        const auto p99 = percentile(phase_lag, 0.99);
        result.note(std::string(name) + "_lag_ms_p99",
                    p99 ? std::to_string(*p99) : "n/a");
        lag.insert(lag.end(), phase_lag.begin(), phase_lag.end());
    }
    const auto lag_p99 = percentile(lag, 0.99);
    result.note("loadgen.lag_ms_p99",
                lag_p99 ? std::to_string(*lag_p99) : "n/a");
    std::printf("served: cold %zu requests at %.1f/s over %.2f s, warm "
                "%zu at %.1f/s over %.2f s, lag p99 %s ms\n",
                cold.size(), kColdRate, cold_s, warm.size(), kWarmRate,
                warm_s,
                lag_p99 ? std::to_string(*lag_p99).c_str() : "n/a");

    if (config.traced) {
        reportTraced(result, cold, warm, spans, cold_phase, warm_phase);
        writeSpans(spans, config.spansPath);
        return result;
    }
    const std::vector<double> cold_ms = latencies(cold);
    const std::vector<double> warm_ms = latencies(warm);
    setup.report(result);
    result.add("peak_rss_mb", rss, "MiB");
    const auto cold_p50 = reportPercentile("cold", cold_ms, 0.50);
    if (!cold_p50)
        throw std::runtime_error("cold phase has too few samples");
    result.add("latency_p50_ms", *cold_p50, "ms");
    // The cold tail and warm latency follow the host's state more
    // than the program (see README.md): recorded, not gated.  The
    // SLO share is recorded too: the closed-loop workloads have no
    // latency limit, and every workload reports the same metrics.
    const auto record = [&](const char *name, const char *phase,
                            const std::vector<double> &values,
                            double p) {
        const auto value = reportPercentile(phase, values, p);
        result.note(name, value ? std::to_string(*value) : "n/a");
    };
    record("cold_latency_p90_ms", "cold", cold_ms, 0.90);
    record("warm_latency_p50_ms", "warm", warm_ms, 0.50);
    record("warm_latency_p99_ms", "warm", warm_ms, 0.99);
    result.note("slo_attainment",
                std::to_string(double(met_slo) /
                               double(result.attempted)));
    return result;
}

} // namespace perfbench
