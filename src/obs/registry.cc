/**
 * @file
 * Implementation of the hierarchical stat registry.
 */

#include "obs/registry.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <unordered_set>

#include "obs/json.hh"
#include "util/logging.hh"

namespace uatm::obs {

const char *
statKindName(StatKind kind)
{
    switch (kind) {
      case StatKind::Scalar:
        return "scalar";
      case StatKind::Formula:
        return "formula";
      case StatKind::Histogram:
        return "histogram";
    }
    panic("unknown StatKind");
}

// ------------------------------------------------ LatencyHistogram

namespace {

/** CAS-loop add for pre-C++20-style atomic<double> accumulation. */
void
atomicAdd(std::atomic<double> &target, double delta)
{
    double expected = target.load(std::memory_order_relaxed);
    while (!target.compare_exchange_weak(
        expected, expected + delta, std::memory_order_relaxed))
        ;
}

void
atomicMin(std::atomic<double> &target, double x)
{
    double expected = target.load(std::memory_order_relaxed);
    while (x < expected &&
           !target.compare_exchange_weak(
               expected, x, std::memory_order_relaxed))
        ;
}

void
atomicMax(std::atomic<double> &target, double x)
{
    double expected = target.load(std::memory_order_relaxed);
    while (x > expected &&
           !target.compare_exchange_weak(
               expected, x, std::memory_order_relaxed))
        ;
}

} // namespace

LatencyHistogram::LatencyHistogram(const LatencyHistogram &other)
{
    copyFrom(other);
}

LatencyHistogram &
LatencyHistogram::operator=(const LatencyHistogram &other)
{
    if (this != &other)
        copyFrom(other);
    return *this;
}

LatencyHistogram::LatencyHistogram(
    LatencyHistogram &&other) noexcept
{
    copyFrom(other);
}

LatencyHistogram &
LatencyHistogram::operator=(LatencyHistogram &&other) noexcept
{
    if (this != &other)
        copyFrom(other);
    return *this;
}

void
LatencyHistogram::copyFrom(const LatencyHistogram &other)
{
    for (std::size_t i = 0; i < kBuckets; ++i)
        counts_[i].store(
            other.counts_[i].load(std::memory_order_relaxed),
            std::memory_order_relaxed);
    count_.store(other.count_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    sum_.store(other.sum_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
    min_.store(other.min_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
    max_.store(other.max_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
}

std::size_t
LatencyHistogram::bucketIndex(double x) const
{
    if (!(x > 1.0))
        return 0;
    // log-derived guess, then fix up the float rounding so edge
    // values land in their inclusive-upper bucket exactly.
    std::size_t i = static_cast<std::size_t>(std::max(
        1.0, 1.0 + std::floor(std::log(x) / std::log(2.0))));
    i = std::min(i, kBuckets - 1);
    while (i > 0 && x <= upperEdge(i - 1))
        --i;
    while (i + 1 < kBuckets && x > upperEdge(i))
        ++i;
    return i;
}

void
LatencyHistogram::add(double x)
{
    if (std::isnan(x))
        return;
    x = std::max(x, 0.0);
    counts_[bucketIndex(x)].fetch_add(1,
                                      std::memory_order_relaxed);
    // First-sample races on min/max resolve via the CAS loops: a
    // competing thread either sees count_ == 0 and stores, or
    // folds in over the other thread's value.
    if (count_.fetch_add(1, std::memory_order_relaxed) == 0) {
        double expected = 0.0;
        min_.compare_exchange_strong(expected, x,
                                     std::memory_order_relaxed);
        expected = 0.0;
        max_.compare_exchange_strong(expected, x,
                                     std::memory_order_relaxed);
    }
    atomicMin(min_, x);
    atomicMax(max_, x);
    atomicAdd(sum_, x);
}

void
LatencyHistogram::merge(const LatencyHistogram &other)
{
    if (other.count() == 0)
        return;
    for (std::size_t i = 0; i < kBuckets; ++i) {
        const std::uint64_t n =
            other.counts_[i].load(std::memory_order_relaxed);
        if (n)
            counts_[i].fetch_add(n, std::memory_order_relaxed);
    }
    if (count_.fetch_add(other.count(),
                         std::memory_order_relaxed) == 0) {
        double expected = 0.0;
        min_.compare_exchange_strong(expected, other.min(),
                                     std::memory_order_relaxed);
        expected = 0.0;
        max_.compare_exchange_strong(expected, other.max(),
                                     std::memory_order_relaxed);
    }
    atomicMin(min_, other.min());
    atomicMax(max_, other.max());
    atomicAdd(sum_, other.sum());
}

void
LatencyHistogram::reset()
{
    for (auto &bucket : counts_)
        bucket.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
    min_.store(0.0, std::memory_order_relaxed);
    max_.store(0.0, std::memory_order_relaxed);
}

std::uint64_t
LatencyHistogram::count() const
{
    return count_.load(std::memory_order_relaxed);
}

double
LatencyHistogram::sum() const
{
    return sum_.load(std::memory_order_relaxed);
}

double
LatencyHistogram::min() const
{
    return count() ? min_.load(std::memory_order_relaxed) : 0.0;
}

double
LatencyHistogram::max() const
{
    return count() ? max_.load(std::memory_order_relaxed) : 0.0;
}

double
LatencyHistogram::mean() const
{
    const std::uint64_t n = count();
    return n ? sum() / static_cast<double>(n) : 0.0;
}

double
LatencyHistogram::upperEdge(std::size_t i) const
{
    UATM_ASSERT(i < kBuckets, "histogram bucket ", i,
                " out of range");
    if (i + 1 == kBuckets)
        return std::numeric_limits<double>::infinity();
    return std::pow(2.0, static_cast<double>(i));
}

std::uint64_t
LatencyHistogram::bucketCount(std::size_t i) const
{
    UATM_ASSERT(i < kBuckets, "histogram bucket ", i,
                " out of range");
    return counts_[i].load(std::memory_order_relaxed);
}

double
LatencyHistogram::quantile(double q) const
{
    const std::uint64_t total = count();
    if (total == 0)
        return 0.0;
    if (q <= 0.0)
        return min();
    if (q >= 1.0)
        return max();

    const double rank = q * static_cast<double>(total);
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
        const std::uint64_t here = bucketCount(i);
        if (here == 0)
            continue;
        if (static_cast<double>(cumulative + here) >= rank) {
            const double lo = i == 0 ? 0.0 : upperEdge(i - 1);
            // The +Inf overflow bucket interpolates toward the
            // observed max instead of infinity.
            const double hi = i + 1 == kBuckets
                                  ? max()
                                  : upperEdge(i);
            const double within =
                (rank - static_cast<double>(cumulative)) /
                static_cast<double>(here);
            const double x = lo + within * (std::max(hi, lo) - lo);
            return std::min(std::max(x, min()), max());
        }
        cumulative += here;
    }
    return max();
}

double
StatEntry::valueNow() const
{
    switch (kind) {
      case StatKind::Scalar:
        return scalar;
      case StatKind::Formula:
        return formula ? formula() : 0.0;
      case StatKind::Histogram:
        return histogram.mean();
    }
    panic("unknown StatKind");
}

StatEntry &
StatRegistry::emplace(const std::string &name,
                      const std::string &description,
                      const std::string &unit, StatKind kind)
{
    UATM_ASSERT(!name.empty(), "stat name must not be empty");
    UATM_ASSERT(!index_.contains(name),
                "duplicate stat registration: ", name);
    index_.emplace(name, entries_.size());
    StatEntry &entry = entries_.emplace_back();
    entry.name = name;
    entry.description = description;
    entry.unit = unit;
    entry.kind = kind;
    return entry;
}

void
StatRegistry::addScalar(const std::string &name, double value,
                        const std::string &description,
                        const std::string &unit)
{
    emplace(name, description, unit, StatKind::Scalar).scalar =
        value;
}

void
StatRegistry::addFormula(const std::string &name,
                         std::function<double()> formula,
                         const std::string &description,
                         const std::string &unit)
{
    emplace(name, description, unit, StatKind::Formula).formula =
        std::move(formula);
}

LatencyHistogram &
StatRegistry::addLatencyHistogram(const std::string &name,
                                  const LatencyHistogram &histogram,
                                  const std::string &description,
                                  const std::string &unit)
{
    StatEntry &entry =
        emplace(name, description, unit, StatKind::Histogram);
    entry.histogram = histogram;
    return entry.histogram;
}

bool
StatRegistry::contains(const std::string &name) const
{
    return index_.contains(name);
}

const StatEntry *
StatRegistry::find(const std::string &name) const
{
    const auto it = index_.find(name);
    return it == index_.end() ? nullptr : &entries_[it->second];
}

StatEntry *
StatRegistry::findMutable(const std::string &name)
{
    const auto it = index_.find(name);
    return it == index_.end() ? nullptr : &entries_[it->second];
}

double
StatRegistry::value(const std::string &name) const
{
    const StatEntry *entry = find(name);
    UATM_ASSERT(entry, "unknown stat: ", name);
    return entry->valueNow();
}

void
StatRegistry::clear()
{
    entries_.clear();
    index_.clear();
}

std::string
StatRegistry::formatText() const
{
    std::size_t width = 0;
    for (const auto &entry : entries_)
        width = std::max(width, entry.name.size());

    std::ostringstream os;
    for (const auto &entry : entries_) {
        os << entry.name
           << std::string(width - entry.name.size(), ' ') << " = ";
        if (entry.kind == StatKind::Histogram) {
            const LatencyHistogram &h = entry.histogram;
            os << h.mean() << " (n=" << h.count()
               << ", sum=" << h.sum() << ", p50=" << h.p50()
               << ", p95=" << h.p95()
               << ", p99=" << h.p99() << ", max=" << h.max()
               << ")";
        } else {
            os << JsonWriter::formatNumber(entry.valueNow());
        }
        if (!entry.unit.empty() || !entry.description.empty()) {
            os << "  #";
            if (!entry.unit.empty())
                os << " (" << entry.unit << ")";
            if (!entry.description.empty())
                os << " " << entry.description;
        }
        os << '\n';
    }
    return os.str();
}

std::string
StatRegistry::toJson() const
{
    JsonWriter w;
    w.beginObject();
    w.keyValue("schema_version", kStatSchemaVersion);
    w.key("stats").beginObject();
    for (const auto &entry : entries_) {
        w.key(entry.name).beginObject();
        w.keyValue("kind", statKindName(entry.kind));
        if (entry.kind == StatKind::Histogram) {
            const LatencyHistogram &h = entry.histogram;
            w.keyValue("count", h.count());
            w.keyValue("sum", h.sum());
            w.keyValue("mean", h.mean());
            w.keyValue("min", h.min());
            w.keyValue("max", h.max());
            w.keyValue("p50", h.p50());
            w.keyValue("p95", h.p95());
            w.keyValue("p99", h.p99());
            // Only occupied buckets: 64 mostly-empty rows per
            // histogram would drown the dump.
            w.key("buckets").beginArray();
            for (std::size_t i = 0; i < LatencyHistogram::kBuckets;
                 ++i) {
                if (h.bucketCount(i) == 0)
                    continue;
                w.beginObject();
                w.key("le");
                if (std::isinf(h.upperEdge(i)))
                    w.value("+Inf");
                else
                    w.value(h.upperEdge(i));
                w.keyValue("count", h.bucketCount(i));
                w.endObject();
            }
            w.endArray();
        } else {
            w.keyValue("value", entry.valueNow());
        }
        if (!entry.unit.empty())
            w.keyValue("unit", entry.unit);
        if (!entry.description.empty())
            w.keyValue("desc", entry.description);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    return w.str();
}

namespace {

/** Map a dotted stat path onto a legal Prometheus metric name. */
std::string
promSanitize(const std::string &name)
{
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        const bool legal =
            (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
            (c >= '0' && c <= '9' && !out.empty()) || c == '_' ||
            c == ':';
        out += legal ? c : '_';
    }
    return out.empty() ? std::string("_") : out;
}

/** Escape HELP text: backslash and newline only (no quotes). */
std::string
promEscapeHelp(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          default: out += c;
        }
    }
    return out;
}

/** Exposition number rendering (NaN/+Inf/-Inf spelled out). */
std::string
promNumber(double v)
{
    if (std::isnan(v))
        return "NaN";
    if (std::isinf(v))
        return v > 0 ? "+Inf" : "-Inf";
    return JsonWriter::formatNumber(v);
}

/** "_<unit>" suffix for the metric name; "" for unitless units. */
std::string
promUnitSuffix(const std::string &unit)
{
    if (unit.empty() || unit == "count" || unit == "bool")
        return "";
    std::string suffix = "_";
    suffix += promSanitize(unit);
    return suffix;
}

} // namespace

std::string
StatRegistry::dumpPrometheus() const
{
    std::ostringstream os;

    // Sanitization can collide ("a.b" and "a-b" both map to
    // "a_b"), and a gauge literally named "x_bucket" would collide
    // with histogram x's derived series.  A repeated metric name
    // means duplicate HELP/TYPE blocks, which scrapers reject, so
    // every name an entry occupies — itself plus any derived
    // _bucket/_sum/_count series — is claimed in this set, and
    // later colliders get a deterministic "_2"/"_3" suffix.
    std::unordered_set<std::string> used;
    const auto derivedNames =
        [](const std::string &metric,
           StatKind kind) -> std::vector<std::string> {
        if (kind == StatKind::Histogram)
            return {metric, metric + "_bucket", metric + "_sum",
                    metric + "_count"};
        return {metric};
    };

    for (const auto &entry : entries_) {
        const std::string stem = "uatm_" + promSanitize(entry.name) +
                                 promUnitSuffix(entry.unit);
        std::string metric = stem;
        for (int suffix = 2;; ++suffix) {
            const auto names = derivedNames(metric, entry.kind);
            const bool clash = std::any_of(
                names.begin(), names.end(),
                [&used](const std::string &name) {
                    return used.contains(name);
                });
            if (!clash) {
                used.insert(names.begin(), names.end());
                break;
            }
            metric = stem + "_" + std::to_string(suffix);
        }

        const bool histogram =
            entry.kind == StatKind::Histogram;
        os << "# HELP " << metric << ' '
           << promEscapeHelp(entry.description.empty()
                                 ? entry.name
                                 : entry.description)
           << '\n';
        os << "# TYPE " << metric << ' '
           << (histogram ? "histogram" : "gauge") << '\n';
        if (histogram) {
            // Conformant exposition: cumulative _bucket series
            // over the occupied edges, always closed by le="+Inf"
            // (== _count), then _sum and _count.  The buckets are
            // snapshotted once so a scrape concurrent with add()
            // stays internally consistent: reading a live bucket
            // twice (or _count separately) could yield a
            // non-monotone cumulative series or a +Inf bucket
            // below _count.
            const LatencyHistogram &h = entry.histogram;
            std::array<std::uint64_t, LatencyHistogram::kBuckets>
                counts{};
            std::uint64_t total = 0;
            for (std::size_t i = 0; i < counts.size(); ++i) {
                counts[i] = h.bucketCount(i);
                total += counts[i];
            }
            std::uint64_t cumulative = 0;
            for (std::size_t i = 0; i + 1 < counts.size(); ++i) {
                if (counts[i] == 0)
                    continue;
                cumulative += counts[i];
                os << metric << "_bucket{le=\""
                   << promNumber(h.upperEdge(i)) << "\"} "
                   << promNumber(static_cast<double>(cumulative))
                   << '\n';
            }
            os << metric << "_bucket{le=\"+Inf\"} "
               << promNumber(static_cast<double>(total)) << '\n';
            os << metric << "_sum " << promNumber(h.sum()) << '\n';
            os << metric << "_count "
               << promNumber(static_cast<double>(total)) << '\n';
            continue;
        }
        os << metric << ' ' << promNumber(entry.valueNow())
           << '\n';
    }
    return os.str();
}

StatGroup
StatGroup::group(const std::string &name) const
{
    return StatGroup(registry_, qualify(name));
}

std::string
StatGroup::qualify(const std::string &name) const
{
    return prefix_.empty() ? name : prefix_ + "." + name;
}

} // namespace uatm::obs
