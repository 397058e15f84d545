/**
 * @file
 * uatm-served: the sweep daemon.
 *
 * Binds the serve::Server (docs/SERVING.md) on loopback and runs
 * until SIGINT/SIGTERM:
 *
 *   uatm_served [options]
 *
 *     --bind <addr>         bind address (default 127.0.0.1)
 *     --port <n>            port; 0 = ephemeral (default 0)
 *     --port-file <path>    write the bound port here, for
 *                           scripts that asked for an ephemeral
 *                           port (written atomically enough for
 *                           CI: port + newline, then flush)
 *     --threads <n>         worker threads per sweep; 0 = all
 *                           hardware threads (default 0)
 *     --max-points <n>      per-request point cap -> 413
 *     --max-queue <n>       admitted-request cap -> 429
 *     --cache-capacity <n>  in-memory point cache entries
 *     --cache-dir <path>    on-disk point cache (default: memory
 *                           only)
 *
 * Flags follow obs/flags.hh ("--name=value" works too): a number
 * its field cannot hold, such as --port 70000, is refused before
 * anything binds.
 *
 * Exit status: 0 on a clean signal-driven shutdown, 1 when the
 * server cannot start, 2 on bad usage.
 */

#include <chrono>
#include <csignal>
#include <cstdio>
#include <ostream>
#include <thread>

#include "obs/flags.hh"
#include "serve/server.hh"
#include "util/file.hh"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void
onSignal(int)
{
    g_stop = 1;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace uatm;

    serve::ServerOptions server_options;
    std::string port_file;
    obs::Flags flags("uatm_served", "Serve sweep scenarios over HTTP.");
    flags.add("bind", server_options.http.bindAddress, "bind address");
    flags.add("port", server_options.http.port, "port (0 = ephemeral)");
    flags.add("port-file", port_file,
              "write the bound port to this file");
    flags.add("threads", server_options.service.threads,
              "worker threads per sweep (0 = all cores)");
    flags.add("max-points", server_options.service.maxPointsPerRequest,
              "per-request point cap (413 beyond it)");
    flags.add("max-queue", server_options.service.maxQueueDepth,
              "admitted-request cap (429 beyond it)");
    flags.add("cache-capacity", server_options.service.cache.capacity,
              "in-memory point cache entries", 1);
    flags.add("cache-dir", server_options.service.cache.dir,
              "on-disk point cache directory");

    bool helped = false;
    if (const Status parsed = flags.parse(argc, argv, &helped);
        !parsed.ok())
        return flags.usageError(parsed.message());
    if (helped)
        return 0;

    serve::Server server(server_options);
    const Status started = server.start();
    if (!started.ok()) {
        std::fprintf(stderr, "uatm_served: %s\n",
                     started.message().c_str());
        return 1;
    }

    if (!port_file.empty()) {
        const Status written =
            writeWholeFile(port_file, [&server](std::ostream &out) {
                out << server.port() << "\n";
            });
        if (!written.ok()) {
            std::fprintf(stderr, "uatm_served: %s\n",
                         written.message().c_str());
            server.stop();
            return 1;
        }
    }
    std::printf("uatm_served: listening on %s:%u (threads=%u, "
                "max-points=%zu, max-queue=%zu, cache=%zu%s%s)\n",
                server_options.http.bindAddress.c_str(),
                unsigned(server.port()),
                server.service().options().threads,
                server.service().options().maxPointsPerRequest,
                server.service().options().maxQueueDepth,
                server.service().options().cache.capacity,
                server_options.service.cache.dir.empty()
                    ? ""
                    : ", disk=",
                server_options.service.cache.dir.c_str());
    std::fflush(stdout);

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    while (!g_stop) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(50));
    }

    std::printf("uatm_served: shutting down\n");
    server.stop();
    return 0;
}
