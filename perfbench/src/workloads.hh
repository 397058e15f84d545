/**
 * @file
 * The three workloads and what they share: run options, the
 * result every run prints, and the per-layer ledger of a traced
 * run.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "spans.hh"
#include "stats.hh"

namespace perfbench {

/** Runner threads of every workload: the load and the program
 *  together fit a 4-core host. */
constexpr unsigned kRunnerThreads = 2;

/** A traced run fails when |ledger.residual_share| exceeds this:
 *  the layer self times must add up to the operation time.  Warm
 *  served operations take ~0.2 ms, of which waking the host's idle
 *  CPUs is a varying part; their residual reached 0.09 on a 4-vCPU
 *  host while sweeps and grids stay near 0.04. */
constexpr double kLedgerTolerance = 0.15;

struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool traced = false;
    std::string servedBinary; ///< the uatm_served to spawn
    std::string workDir;      ///< temporary files of this run
    std::string spansPath;    ///< traced runs write spans here
};

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

struct WorkloadResult
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** False when an operation failed a gate or the ledger check
     *  failed. */
    bool correct = true;
    std::vector<Metric> metrics;
    /** Extra run-record fields (sample counts, noise). */
    std::vector<std::pair<std::string, std::string>> record;

    void add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    void note(std::string key, std::string value)
    {
        record.emplace_back(std::move(key), std::move(value));
    }
};

/** Seconds between two set-up repetitions of an untraced run. */
constexpr double kSetupIntervalSeconds = 0.5;

/**
 * The samples behind setup_s.  Set-up is repeated through the timed
 * run, one repetition every kSetupIntervalSeconds, the first at
 * once, each outside the timing of any operation.  Their median so
 * follows the host's state over the whole run, as the timed metrics
 * do, rather than its state at one moment.
 */
class SetupSamples
{
  public:
    /** Run @p rep, which returns the seconds one set-up took, when
     *  a repetition is due. */
    template <typename Rep>
    void
    poll(Rep &&rep)
    {
        if (nowNs() < next_)
            return;
        seconds_.push_back(rep());
        next_ = nowNs() + std::int64_t(kSetupIntervalSeconds * 1e9);
    }

    /** Nanoseconds until the next repetition is due. */
    std::int64_t untilDueNs() const { return next_ - nowNs(); }

    /** Add setup_s, the median, to @p result, with the sample count
     *  and quartiles in its run record; throws without a sample. */
    void report(WorkloadResult &result) const;

  private:
    std::vector<double> seconds_;
    std::int64_t next_ = 0;
};

/** The per-layer metrics every traced run reports, with units.  A
 *  layer that does no work in a workload reads 0. */
const std::vector<std::pair<std::string, std::string>> &
layerMetrics();

/**
 * Per-layer self time of a traced run, against the untraced
 * operation time it must add up to.  Spans under a root named "op"
 * make up the ledger; other root spans (served parse and NDJSON
 * rendering, which the daemon does outside its request timer) are
 * measured but stand outside it.
 */
struct Ledger
{
    std::map<std::string, double> selfNs;     ///< every span
    std::map<std::string, double> durationNs; ///< every span
    std::map<std::string, std::size_t> count; ///< every span
    double layerNs = 0; ///< self time under "op" roots, roots excluded
    double rootNs = 0;  ///< duration of the "op" roots
    double opNs = 0;    ///< untraced operation time (set by caller)

    /** 1 - layer time / operation time. */
    double residual() const { return 1.0 - layerNs / opNs; }
    double residualShare() const;
    /** Traced over untraced operation time, minus one. */
    double tracingOverheadShare() const { return rootNs / opNs - 1.0; }
    /** Self time of @p name as a share of @p total_ns. */
    double share(const std::string &name, double total_ns) const;
    double self(const std::string &name) const;
    double duration(const std::string &name) const;
};

/** Write @p spans to @p path (nothing when empty); throws on I/O
 *  failure. */
void writeSpans(const SpanRecorder &spans, const std::string &path);

/** Ledger of the operations numbered [@p first_op, @p end_op). */
Ledger ledgerOf(const SpanRecorder &recorder,
                std::uint64_t first_op = 0,
                std::uint64_t end_op = UINT64_MAX);

/** Print the ledger table to stdout under @p title. */
void printLedger(const std::string &title, const Ledger &ledger,
                 double end_to_end_ns);

/** Set every layer metric of @p values (missing ones read 0) and
 *  the ledger check into @p result. */
void reportLayers(WorkloadResult &result,
                  std::map<std::string, double> values,
                  double residual_share, double overhead_share);

WorkloadResult runOfflineSweep(const RunConfig &config);
WorkloadResult runEngineReplay(const RunConfig &config);
WorkloadResult runServed(const RunConfig &config);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
