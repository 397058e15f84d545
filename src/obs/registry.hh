/**
 * @file
 * Hierarchical statistic registry, gem5-style.
 *
 * Components describe their counters once — name, description,
 * unit — and register them here instead of (or alongside) their
 * bespoke structs.  Three stat kinds exist:
 *
 *  - Scalar:    a sampled numeric value (counter snapshot);
 *  - Formula:   a derived value evaluated lazily at dump time;
 *  - Histogram: a LatencyHistogram, the one summary of a timed
 *               span (runner points, served requests, profile
 *               scopes).
 *
 * Names are dotted paths ("sim.fills", "stall.flush"); StatGroup
 * provides scoped prefixes so components can register relative
 * names.  Dumps come out as aligned key = value text or as a
 * versioned JSON document (see docs/OBSERVABILITY.md).
 */

#ifndef UATM_OBS_REGISTRY_HH
#define UATM_OBS_REGISTRY_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

namespace uatm::obs {

/** Bumped whenever the JSON stat-dump layout changes shape. */
constexpr int kStatSchemaVersion = 1;

enum class StatKind : std::uint8_t
{
    Scalar,
    Formula,
    Histogram,
};

const char *statKindName(StatKind kind);

/**
 * Log-bucketed latency histogram with lock-free concurrent adds.
 *
 * Every histogram has the same kBuckets buckets, so any two merge.
 * Upper edges double from 1 (ns, for the timed spans): bucket 0
 * covers [0, 1], bucket i covers (2^(i-1), 2^i], and the last
 * bucket is the +Inf overflow.  That spans 1 ns to ~9.2e18 ns with
 * <= 2x relative quantile error, which is what per-point runner
 * latencies need.
 *
 * add() and merge() are safe from any number of threads (relaxed
 * atomics per bucket, CAS loops for sum/min/max); the readers
 * (count/sum/quantile/dumps) take a racy-but-torn-free snapshot,
 * intended for use after the writers have joined.
 */
class LatencyHistogram
{
  public:
    static constexpr std::size_t kBuckets = 64;

    LatencyHistogram() = default;
    LatencyHistogram(const LatencyHistogram &other);
    LatencyHistogram &operator=(const LatencyHistogram &other);
    LatencyHistogram(LatencyHistogram &&other) noexcept;
    LatencyHistogram &operator=(LatencyHistogram &&other) noexcept;

    /** Fold one sample in; thread-safe and lock-free. */
    void add(double x);

    /** Fold another histogram in bucket-by-bucket.  Thread-safe
     *  on the destination. */
    void merge(const LatencyHistogram &other);

    void reset();

    std::uint64_t count() const;
    double sum() const;
    double min() const;  ///< 0 when empty
    double max() const;  ///< 0 when empty
    double mean() const; ///< 0 when empty

    /** Inclusive upper edge of bucket i; +Inf for the last. */
    double upperEdge(std::size_t i) const;

    std::uint64_t bucketCount(std::size_t i) const;

    /**
     * Smallest x with at least fraction @p q of samples <= x,
     * linearly interpolated within the containing bucket and
     * clamped to the observed [min, max].
     */
    double quantile(double q) const;

    double p50() const { return quantile(0.50); }
    double p95() const { return quantile(0.95); }
    double p99() const { return quantile(0.99); }

  private:
    std::array<std::atomic<std::uint64_t>, kBuckets> counts_{};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
    std::atomic<double> min_{0.0};  ///< valid only when count_ > 0
    std::atomic<double> max_{0.0};

    std::size_t bucketIndex(double x) const;
    void copyFrom(const LatencyHistogram &other);
};

/** One registered statistic. */
struct StatEntry
{
    std::string name;
    std::string description;
    std::string unit;
    StatKind kind = StatKind::Scalar;

    double scalar = 0.0;                ///< Scalar value
    std::function<double()> formula;    ///< Formula evaluator
    LatencyHistogram histogram;         ///< Histogram buckets

    /** Scalar value, evaluated formula, or histogram mean. */
    double valueNow() const;
};

class StatRegistry
{
  public:
    /** Register a sampled scalar; duplicate names panic. */
    void addScalar(const std::string &name, double value,
                   const std::string &description,
                   const std::string &unit = "");

    /** Register a formula evaluated at every dump. */
    void addFormula(const std::string &name,
                    std::function<double()> formula,
                    const std::string &description,
                    const std::string &unit = "");

    /**
     * Register a latency histogram (copied in).  The returned
     * reference accepts further concurrent add()s, but is only
     * valid until the next registration (the entry table may
     * reallocate).
     */
    LatencyHistogram &
    addLatencyHistogram(const std::string &name,
                        const LatencyHistogram &histogram,
                        const std::string &description,
                        const std::string &unit = "");

    bool contains(const std::string &name) const;

    /** Entry by name; nullptr when absent. */
    const StatEntry *find(const std::string &name) const;

    /**
     * Mutable entry by name, for components that keep feeding a
     * registered histogram after registration; nullptr when
     * absent.  Like addLatencyHistogram's reference, the pointer
     * is invalidated by the next registration.
     */
    StatEntry *findMutable(const std::string &name);

    /** Current value of the named stat; panics when absent. */
    double value(const std::string &name) const;

    /** All entries in registration order. */
    const std::vector<StatEntry> &entries() const
    {
        return entries_;
    }

    std::size_t size() const { return entries_.size(); }
    void clear();

    /** Aligned "name = value  # unit: description" block. */
    std::string formatText() const;

    /**
     * Versioned JSON dump:
     * {"schema_version": N, "stats": {name: {kind, value, ...}}}.
     */
    std::string toJson() const;

    /**
     * Prometheus text exposition (format 0.0.4) of every entry.
     *
     * Dotted stat names become `uatm_<name>` metric names with
     * '.' (and any other invalid character) mapped to '_', plus a
     * unit suffix derived from the stat's unit ("cycles" ->
     * "_cycles"; the unitless "count"/"bool" add nothing).  No
     * sample carries a label but a histogram bucket's `le`.
     * Sanitization collisions ("a.b" vs "a-b", or a
     * gauge named like another metric's _bucket/_sum/_count
     * series) are resolved with a deterministic "_2"/"_3" suffix
     * so no metric name ever repeats its HELP/TYPE block.
     * Scalars and formulas emit as gauges with a HELP/TYPE pair;
     * latency histograms emit as conformant
     * Prometheus histograms (cumulative `_bucket{le="..."}` series
     * ending in le="+Inf", plus `_sum` and `_count`).
     */
    std::string dumpPrometheus() const;

  private:
    std::vector<StatEntry> entries_;
    std::unordered_map<std::string, std::size_t> index_;

    StatEntry &emplace(const std::string &name,
                       const std::string &description,
                       const std::string &unit, StatKind kind);
};

/**
 * Prefix-scoped view of a registry, for hierarchical registration:
 *
 *   StatGroup sim(registry, "sim");
 *   sim.addScalar("fills", fills, "line fills issued");
 *   sim.group("prefetch").addScalar("issued", n, "...");
 */
class StatGroup
{
  public:
    StatGroup(StatRegistry &registry, std::string prefix)
        : registry_(registry), prefix_(std::move(prefix))
    {}

    /** A nested group: this prefix + "." + @p name. */
    StatGroup group(const std::string &name) const;

    void
    addScalar(const std::string &name, double value,
              const std::string &description,
              const std::string &unit = "") const
    {
        registry_.addScalar(qualify(name), value, description,
                            unit);
    }

    void
    addFormula(const std::string &name,
               std::function<double()> formula,
               const std::string &description,
               const std::string &unit = "") const
    {
        registry_.addFormula(qualify(name), std::move(formula),
                             description, unit);
    }

    LatencyHistogram &
    addLatencyHistogram(const std::string &name,
                        const LatencyHistogram &histogram,
                        const std::string &description,
                        const std::string &unit = "") const
    {
        return registry_.addLatencyHistogram(
            qualify(name), histogram, description, unit);
    }

    const std::string &prefix() const { return prefix_; }

  private:
    StatRegistry &registry_;
    std::string prefix_;

    std::string qualify(const std::string &name) const;
};

} // namespace uatm::obs

#endif // UATM_OBS_REGISTRY_HH
