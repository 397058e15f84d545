/**
 * @file
 * perfbench: runs one workload of the benchmark and prints its
 * result.  run.py builds it and calls it:
 *
 *   perfbench --workload <offline_sweep|engine_replay|served>
 *       --seed <n> --seconds <s> --trace <0|1>
 *       --served-bin <uatm_served> --work-dir <dir>
 *       [--spans <file>] [--commit <id>]
 *
 * The last line of stdout is the result object: correct, attempted,
 * failed and metrics (end-to-end ones untraced, per-layer ones
 * traced).  The line before it is the run record.  Exit status: 0
 * with a result, 1 when the run could not complete, 2 on bad usage,
 * 3 on an unoptimised build.
 */

#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "obs/json.hh"
#include "record.hh"
#include "workloads.hh"

namespace {

using namespace perfbench;

std::string
number(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench "
                 "--workload <offline_sweep|engine_replay|served> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "--served-bin <path> --work-dir <dir> "
                 "[--spans <file>] [--commit <id>]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (!optimisedBuild()) {
        std::fprintf(stderr, "perfbench: refusing to measure "
                             "an unoptimised build\n");
        return 3;
    }
    RunConfig config;
    std::string commit = "unknown";
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        try {
            if (flag == "--workload")
                config.workload = value;
            else if (flag == "--seed")
                config.seed = std::stoull(value);
            else if (flag == "--seconds")
                config.seconds = std::stod(value);
            else if (flag == "--trace")
                config.traced = value == "1";
            else if (flag == "--served-bin")
                config.servedBinary = value;
            else if (flag == "--work-dir")
                config.workDir = value;
            else if (flag == "--spans")
                config.spansPath = value;
            else if (flag == "--commit")
                commit = value;
            else
                return usage(("unknown flag " + flag).c_str());
        } catch (const std::exception &) {
            return usage(("bad value for " + flag).c_str());
        }
    }
    if (!(config.seconds > 0) || config.workDir.empty())
        return usage("--seconds must be positive and --work-dir set");

    WorkloadResult result;
    try {
        std::filesystem::create_directories(config.workDir);
        if (config.workload == "offline_sweep")
            result = runOfflineSweep(config);
        else if (config.workload == "engine_replay")
            result = runEngineReplay(config);
        else if (config.workload == "served")
            result = runServed(config);
        else
            return usage("unknown workload");
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s: %s\n",
                     config.workload.c_str(), e.what());
        return 1;
    }
    for (const Metric &metric : result.metrics) {
        if (!std::isfinite(metric.value)) {
            std::fprintf(stderr,
                         "perfbench: metric %s is not finite\n",
                         metric.name.c_str());
            return 1;
        }
    }

    uatm::obs::JsonWriter record;
    record.beginObject();
    for (const auto &[key, value] : hostRecord())
        record.keyValue(key, value);
    record.keyValue("commit", commit);
    record.keyValue("seed", config.seed);
    record.keyValue("workload", config.workload);
    record.keyValue("traced", config.traced);
    for (const auto &[key, value] : result.record)
        record.keyValue(key, value);
    record.endObject();

    for (const Metric &metric : result.metrics)
        std::printf("metric %-32s %.6g %s\n", metric.name.c_str(),
                    metric.value, metric.unit.c_str());
    std::printf("operations: attempted %llu, failed %llu\n",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed));
    std::printf("run_record %s\n", record.str().c_str());

    std::string line = "{\"correct\": ";
    line += result.correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(result.attempted);
    line += ", \"failed\": " + std::to_string(result.failed);
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
        const Metric &metric = result.metrics[i];
        line += (i ? ", " : "") +
                uatm::obs::JsonWriter::escape(metric.name) +
                ": {\"value\": " + number(metric.value) +
                ", \"unit\": " +
                uatm::obs::JsonWriter::escape(metric.unit) + "}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    return 0;
}
