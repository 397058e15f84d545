/**
 * @file
 * The wire schema of a sweep request: a JSON scenario description
 * parsed onto the existing exp::Scenario machinery.
 *
 * A request names a base cache config (every field optional over
 * the library defaults), a workload spec (the registered-method
 * JSON from exp/workload_spec), the swept axes, and the kernel that
 * prices each point.  The schema holds only what the kernel reads:
 * the memory, write-buffer and CPU configs enter the timing engine
 * and Eq. 2, not the hit ratio, so a request cannot set them and
 * served points keep their defaults.  Axes are addressed by
 * registered name ("cache.size", "cache.assoc", "cache.line") so
 * the server never evaluates caller-supplied code — the applier is
 * looked up, the values come from the request.  The special axis
 * "workload" sweeps whole workload specs.
 *
 * Parsing is strict: unknown fields, unknown axis or kernel names,
 * and mistyped values are typed ParseError/NotFound Statuses (the
 * daemon maps them to HTTP 400), never aborts — request bodies are
 * untrusted input.
 *
 * Example:
 * {
 *   "name": "geometry_small",
 *   "kernel": "cache",
 *   "refs": 100000,
 *   "workload": {"method": "spec92",
 *                "params": {"profile": "nasa7"}, "seed": 1},
 *   "cache": {"size": 8192, "assoc": 2, "line": 32},
 *   "axes": [{"axis": "cache.size",
 *             "values": [4096, 8192, 16384]}],
 *   "threads": 2
 * }
 */

#ifndef UATM_SERVE_SWEEP_REQUEST_HH
#define UATM_SERVE_SWEEP_REQUEST_HH

#include <string>
#include <string_view>
#include <vector>

#include "exp/runner.hh"
#include "exp/scenario.hh"
#include "util/status.hh"

namespace uatm::serve {

/**
 * One kernel the serve layer can run.  The id feeds the canonical
 * point key, so it must change whenever the kernel's columns or
 * semantics do ("cache/v1" -> "cache/v2"), or stale cache entries
 * would alias the new meaning.
 */
struct ServeKernel
{
    std::string name;       ///< request-facing name ("cache")
    std::string id;         ///< cache-key id ("cache/v1")
    std::vector<std::string> columns;
    exp::Runner::Kernel eval;
};

/** Kernel by request name; nullptr when unknown. */
const ServeKernel *findServeKernel(const std::string &name);

/** Registered kernel names, for diagnostics. */
std::vector<std::string> serveKernelNames();

/** Registered axis names ("cache.size", ..., "workload"). */
std::vector<std::string> serveAxisNames();

/** A parsed request, ready for SweepService::runSweep. */
struct SweepRequest
{
    exp::Scenario scenario{"sweep"};
    std::string kernel = "cache";

    /** Requested worker threads; 0 = the server's default.  The
     *  service clamps it to its own pool size. */
    unsigned threads = 0;
};

/** Parse one request document (see the schema above). */
Expected<SweepRequest> parseSweepRequest(std::string_view json);

} // namespace uatm::serve

#endif // UATM_SERVE_SWEEP_REQUEST_HH
