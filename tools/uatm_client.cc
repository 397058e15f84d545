/**
 * @file
 * uatm_client: command-line client for uatm-served.
 *
 *   uatm_client [--host <h>] [--port <n>] --scenario <file|->
 *               [--out <file>]
 *   uatm_client [--host <h>] [--port <n>] --metrics
 *   uatm_client [--host <h>] [--port <n>] --workloads
 *   uatm_client --offline --scenario <file|-> [--out <file>]
 *               [--threads <n>]
 *
 * The default mode POSTs the scenario JSON to /sweep and writes
 * the NDJSON result rows to --out (default stdout); the cache
 * accounting the daemon returns in its X-Uatm-* headers goes to
 * stderr.  --metrics and --workloads print the matching GET
 * endpoint.  --offline runs the same scenario in-process on the
 * same parser and kernel registry, emitting byte-identical NDJSON
 * — CI diffs the two to prove the daemon adds transport, not
 * meaning — and warns once per failed point.  --threads overrides
 * the offline run's thread count (0 keeps the scenario's own
 * value); a daemon runs the body as sent, so without --offline it
 * is refused.  Flags follow obs/flags.hh ("--name=value" works
 * too).
 *
 * Exit status: 0 success, 1 transport or HTTP (non-2xx) error,
 * 2 bad usage.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "exp/runner.hh"
#include "obs/flags.hh"
#include "serve/http.hh"
#include "serve/sweep_request.hh"
#include "util/file.hh"

namespace {

using namespace uatm;

/** Read @p path ("-" = stdin) fully; IoError when unreadable. */
Expected<std::string>
readInput(const std::string &path)
{
    std::stringstream buffer;
    if (path == "-") {
        buffer << std::cin.rdbuf();
    } else {
        std::ifstream in(path);
        if (!in) {
            return Status::ioError("cannot read scenario file '",
                                   path, "'");
        }
        buffer << in.rdbuf();
    }
    return buffer.str();
}

/** Write @p text to @p path (empty = stdout). */
Status
writeOutput(const std::string &path, const std::string &text)
{
    if (path.empty()) {
        std::fputs(text.c_str(), stdout);
        return Status();
    }
    return writeWholeFile(
        path, [&text](std::ostream &out) { out << text; });
}

int
failWith(const Status &status)
{
    std::fprintf(stderr, "uatm_client: %s\n",
                 status.message().c_str());
    return 1;
}

/** Run the scenario in-process: the offline reference run. */
int
runOffline(const std::string &body, unsigned threads,
           const std::string &out_path)
{
    auto request = serve::parseSweepRequest(body);
    if (!request.ok())
        return failWith(request.status());
    const serve::ServeKernel *kernel =
        serve::findServeKernel(request.value().kernel);
    if (!kernel) {
        return failWith(Status::notFound(
            "unknown kernel '", request.value().kernel, "'"));
    }
    exp::RunnerOptions options;
    if (threads)
        request.value().threads = threads;
    options.threads =
        request.value().threads ? request.value().threads : 1;
    exp::Runner runner(options);
    const exp::ResultTable table = runner.run(
        request.value().scenario, kernel->columns, kernel->eval);
    const exp::RunnerTelemetry &stats = runner.lastStats();
    stats.warnFailures();
    const Status written =
        writeOutput(out_path, table.renderNdjson());
    if (!written.ok())
        return failWith(written);
    std::fprintf(stderr,
                 "offline: points=%zu failed=%zu threads=%u\n",
                 std::size_t(stats.pointCount),
                 std::size_t(stats.pointsFailed),
                 stats.threadsRequested);
    return 0;
}

/** GET @p target and print the body; 0 only on HTTP 200. */
int
getAndPrint(const std::string &host, std::uint16_t port,
            const std::string &target)
{
    auto response = serve::httpFetch(host, port, "GET", target);
    if (!response.ok())
        return failWith(response.status());
    std::fputs(response.value().body.c_str(), stdout);
    if (response.value().status != 200) {
        std::fprintf(stderr, "uatm_client: GET %s -> %d\n",
                     target.c_str(), response.value().status);
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    std::string scenario_path;
    std::string out;
    unsigned threads = 0;
    bool metrics = false;
    bool workloads = false;
    bool offline = false;
    obs::Flags flags("uatm_client", "Talk to a uatm_served daemon.");
    flags.add("host", host, "daemon host");
    flags.add("port", port, "daemon port");
    flags.add("scenario", scenario_path,
              "scenario JSON file ('-' = stdin)");
    flags.add("out", out, "NDJSON output file (default stdout)");
    flags.add("threads", threads,
              "override the request's thread count");
    flags.add("metrics", metrics, "GET /metrics and print it");
    flags.add("workloads", workloads, "GET /workloads and print it");
    flags.add("offline", offline,
              "run the scenario in-process instead of contacting a "
              "daemon");

    bool helped = false;
    if (const Status parsed = flags.parse(argc, argv, &helped);
        !parsed.ok())
        return flags.usageError(parsed.message());
    if (helped)
        return 0;
    if (threads && !offline)
        return flags.usageError("uatm_client: --threads needs --offline "
                                "(a daemon runs the scenario as sent)");

    if (metrics)
        return getAndPrint(host, port, "/metrics");
    if (workloads)
        return getAndPrint(host, port, "/workloads");

    if (scenario_path.empty())
        return flags.usageError("uatm_client: --scenario is required "
                                "(or --metrics/--workloads)");
    auto body = readInput(scenario_path);
    if (!body.ok())
        return failWith(body.status());

    if (offline)
        return runOffline(body.value(), threads, out);

    auto response = serve::httpFetch(host, port, "POST", "/sweep",
                                     body.value());
    if (!response.ok())
        return failWith(response.status());
    const serve::HttpClientResponse &reply = response.value();
    if (reply.status != 200) {
        std::fprintf(stderr,
                     "uatm_client: POST /sweep -> %d\n%s\n",
                     reply.status, reply.body.c_str());
        return 1;
    }
    const Status written = writeOutput(out, reply.body);
    if (!written.ok())
        return failWith(written);

    const auto headerOr = [&reply](const char *name) {
        const std::string *value = reply.header(name);
        return value ? value->c_str() : "?";
    };
    std::fprintf(stderr,
                 "sweep: points=%s computed=%s cache_hits=%s "
                 "failed=%s\n",
                 headerOr("x-uatm-points"),
                 headerOr("x-uatm-points-computed"),
                 headerOr("x-uatm-cache-hits"),
                 headerOr("x-uatm-points-failed"));
    return 0;
}
