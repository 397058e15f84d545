/**
 * @file
 * Shared command-line plumbing for the example binaries: the
 * --workload / --seed pair and the --threads / --format / --out
 * flags every scenario-driven example exposes, each bound to the
 * field it fills (obs/flags.hh).
 *
 * The examples are the CLI boundary of the error contract: a bad
 * flag and library errors arrive here as Status values or
 * StatusError exceptions and become fatal() exits (parseFlags,
 * guardedMain, okOrFatal, valueOrFatal).
 */

#ifndef UATM_EXAMPLES_EXAMPLE_CLI_HH
#define UATM_EXAMPLES_EXAMPLE_CLI_HH

#include <cstdint>
#include <string>

#include "exp/result_table.hh"
#include "exp/runner.hh"
#include "exp/workload_spec.hh"
#include "obs/flags.hh"
#include "util/status.hh"

namespace uatm::examples {

/** The largest --cache-kb: a size in KiB whose size in bytes still
 *  fits 64 bits. */
constexpr std::uint64_t kMaxCacheKb = (std::uint64_t{1} << 54) - 1;

/** Read argv into @p flags' bindings: false after --help (the
 *  caller exits 0), and a bad flag is fatal(). */
inline bool
parseFlags(obs::Flags &flags, int argc, char **argv)
{
    bool helped = false;
    okOrFatal(flags.parse(argc, argv, &helped));
    return !helped;
}

/**
 * The shared --workload / --seed pair.  The value syntax is
 * "<method>[:k=v,...]" against the workload registry ("ycsb-a",
 * "ycsb-a:theta=0.9,records=1e6", "reuse-dist:depth=128", bare
 * Spec92 profile names like "doduc") — see trace_tool
 * --list-workloads for the method catalogue.
 */
struct WorkloadCli
{
    std::string workload;
    std::uint64_t seed = 1;

    void bind(obs::Flags &flags)
    {
        flags.add("workload", workload,
                  "workload method \"<method>[:k=v,...]\" (see "
                  "trace_tool --list-workloads)");
        flags.add("seed", seed, "workload seed");
    }

    /** The named workload; a bad method or param is fatal(). */
    exp::WorkloadSpec spec() const
    {
        return valueOrFatal(exp::WorkloadSpec::parse(workload, seed));
    }
};

/** The --threads / --format / --out flags. */
struct RunnerCli
{
    unsigned threads = 1;
    std::string formatName = "text";
    std::string out;
    exp::TableFormat format = exp::TableFormat::Text;

    void bind(obs::Flags &flags)
    {
        flags.add("threads", threads,
                  "worker threads (0 = all hardware threads)");
        flags.add("format", formatName,
                  "result table format: text | csv | json");
        flags.add("out", out,
                  "write the result table here instead of stdout");
    }

    /** parseFlags(), then --format: false after --help. */
    bool parse(obs::Flags &flags, int argc, char **argv)
    {
        if (!parseFlags(flags, argc, argv))
            return false;
        format = valueOrFatal(exp::parseTableFormat(formatName));
        return true;
    }

    /** True when narrative printf output won't corrupt the table
     *  stream (table is a file, or it renders as text). */
    bool narrate() const
    {
        return !out.empty() ||
               format == exp::TableFormat::Text;
    }

    exp::Runner makeRunner() const
    {
        return exp::Runner(exp::RunnerOptions{threads});
    }

    /** Emit @p table per the parsed flags; fatal() when the output
     *  file cannot be written. */
    void emit(const exp::ResultTable &table) const
    {
        okOrFatal(table.emit(format, out));
    }

    /** The same for the table of @p runner's last run, after one
     *  warning per failed point behind its error rows.  When any
     *  point failed, the program then ends with one fatal() line
     *  counting them, so a failed point exits 1. */
    void emit(const exp::ResultTable &table,
              const exp::Runner &runner) const
    {
        const exp::RunnerTelemetry &stats = runner.lastStats();
        stats.warnFailures();
        emit(table);
        if (stats.pointsFailed > 0)
            fatal(stats.pointsFailed, " of ", stats.pointCount,
                  " points failed");
    }
};

} // namespace uatm::examples

#endif // UATM_EXAMPLES_EXAMPLE_CLI_HH
