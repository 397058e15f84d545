/**
 * @file
 * Workload-method registry: validation, default merging, and the
 * built-in method set.
 */

#include "exp/workload_registry.hh"

#include <algorithm>
#include <fstream>
#include <mutex>
#include <sstream>

#include "trace/file_store.hh"
#include "trace/generators.hh"
#include "trace/reuse_distance.hh"
#include "trace/ycsb.hh"
#include "util/logging.hh"

namespace uatm::exp {

const ParamSpec *
WorkloadMethod::param(const std::string &name) const
{
    for (const auto &spec : params) {
        if (spec.name == name)
            return &spec;
    }
    return nullptr;
}

namespace {

std::string
joinNames(const std::vector<std::string> &names)
{
    std::string out;
    for (const auto &name : names) {
        if (!out.empty())
            out += ", ";
        out += name;
    }
    return out;
}

Status
checkIntRange(const ParamMap &params, const char *name,
              std::int64_t lo, std::int64_t hi)
{
    const std::int64_t v = params.getInt(name);
    if (v < lo || v > hi) {
        return Status::invalidArgument(
            "param '", name, "' must be in [", lo, ", ", hi,
            "], got ", v);
    }
    return Status();
}

Status
checkDoubleRange(const ParamMap &params, const char *name,
                 double lo, bool lo_open, double hi, bool hi_open)
{
    const double v = params.getDouble(name);
    const bool below = lo_open ? v <= lo : v < lo;
    const bool above = hi_open ? v >= hi : v > hi;
    if (below || above || v != v) {
        return Status::invalidArgument(
            "param '", name, "' must be in ", lo_open ? "(" : "[",
            lo, ", ", hi, hi_open ? ")" : "]", ", got ", v);
    }
    return Status();
}

Expected<std::unique_ptr<TraceSource>>
makeYcsb(YcsbWorkload::Mix mix, const ParamMap &params,
         std::uint64_t seed)
{
    // Construction cost is O(records) (the zipfian zeta sum), so
    // cap the keyspace well below anything that would stall a
    // sweep.
    if (Status s = checkIntRange(params, "records", 1, 100000000);
        !s.ok()) {
        return s;
    }
    if (Status s =
            checkDoubleRange(params, "theta", 0.0, false, 1.0,
                             true);
        !s.ok()) {
        return s;
    }
    if (Status s =
            checkIntRange(params, "record-bytes", 8, 1 << 20);
        !s.ok()) {
        return s;
    }
    if (Status s = checkIntRange(params, "fields", 1, 4096);
        !s.ok()) {
        return s;
    }
    if (Status s = checkIntRange(params, "scan-max", 1, 1000000);
        !s.ok()) {
        return s;
    }
    const std::string dist = params.getString("dist");
    if (dist != "zipfian" && dist != "uniform") {
        return Status::invalidArgument(
            "param 'dist' must be zipfian or uniform, got '",
            dist, "'");
    }

    YcsbWorkload::Config config;
    config.mix = mix;
    config.records =
        static_cast<std::uint64_t>(params.getInt("records"));
    config.theta = params.getDouble("theta");
    config.zipfian = dist == "zipfian";
    config.recordBytes =
        static_cast<std::uint32_t>(params.getInt("record-bytes"));
    config.fieldsPerOp =
        static_cast<std::uint32_t>(params.getInt("fields"));
    config.maxScanLen =
        static_cast<std::uint32_t>(params.getInt("scan-max"));
    return std::unique_ptr<TraceSource>(
        std::make_unique<YcsbWorkload>(
            config, Rng(seed ^ 0x1c5b3f8e2a9d4701ull)));
}

/** The shared (mix-less) YCSB parameter table. */
std::vector<ParamSpec>
ycsbParams()
{
    return {
        ParamSpec{"records", ParamValue::Type::Int,
                  ParamValue::ofInt(100000),
                  "records loaded before the run"},
        ParamSpec{"theta", ParamValue::Type::Double,
                  ParamValue::ofDouble(0.99),
                  "zipfian skew in [0, 1)"},
        ParamSpec{"dist", ParamValue::Type::String,
                  ParamValue::ofString("zipfian"),
                  "key distribution: zipfian or uniform"},
        ParamSpec{"record-bytes", ParamValue::Type::Int,
                  ParamValue::ofInt(64), "bytes per record"},
        ParamSpec{"fields", ParamValue::Type::Int,
                  ParamValue::ofInt(2),
                  "fields touched per operation"},
        ParamSpec{"scan-max", ParamValue::Type::Int,
                  ParamValue::ofInt(50),
                  "max records per mix-E scan"},
    };
}

Expected<std::unique_ptr<TraceSource>>
makeReuseDistance(const ParamMap &params, std::uint64_t seed)
{
    const std::string hist = params.getString("hist");
    ReuseProfile profile;
    if (hist.empty()) {
        if (Status s = checkIntRange(params, "depth", 1, 1 << 20);
            !s.ok()) {
            return s;
        }
        if (Status s = checkDoubleRange(params, "decay", 0.0,
                                        true, 1.0, false);
            !s.ok()) {
            return s;
        }
        if (Status s = checkDoubleRange(params, "cold", 0.0,
                                        false, 1.0, true);
            !s.ok()) {
            return s;
        }
        profile = ReuseProfile::geometric(
            static_cast<std::size_t>(params.getInt("depth")),
            params.getDouble("decay"), params.getDouble("cold"));
    } else if (hist.front() == '{') {
        auto parsed = ReuseProfile::fromJsonText(hist);
        if (!parsed.ok())
            return parsed.status();
        profile = std::move(parsed).value();
    } else {
        std::ifstream in(hist, std::ios::binary);
        if (!in) {
            return Status::ioError(
                "cannot open reuse profile '", hist, "'");
        }
        std::ostringstream text;
        text << in.rdbuf();
        auto parsed = ReuseProfile::fromJsonText(text.str());
        if (!parsed.ok()) {
            return Status::error(parsed.status().code(), "'",
                                 hist,
                                 "': ", parsed.status().message());
        }
        profile = std::move(parsed).value();
    }

    const std::int64_t line_bytes = params.getInt("line-bytes");
    if (line_bytes < 4 || line_bytes > 65536 ||
        (line_bytes & (line_bytes - 1)) != 0) {
        return Status::invalidArgument(
            "param 'line-bytes' must be a power of two in "
            "[4, 65536], got ",
            line_bytes);
    }
    if (Status s = checkDoubleRange(params, "store-fraction", 0.0,
                                    false, 1.0, false);
        !s.ok()) {
        return s;
    }

    ReuseDistanceWorkload::Config config;
    config.profile = std::move(profile);
    config.lineBytes = static_cast<std::uint32_t>(line_bytes);
    config.storeFraction = params.getDouble("store-fraction");
    return std::unique_ptr<TraceSource>(
        std::make_unique<ReuseDistanceWorkload>(
            config, Rng(seed ^ 0x8d2e6a1b4c7f9035ull)));
}

Expected<std::unique_ptr<TraceSource>>
makeTraceReplay(const ParamMap &params)
{
    const std::string path = params.getString("path");
    if (path.empty()) {
        return Status::invalidArgument(
            "trace replay needs path=<file>");
    }
    const std::string format = params.getString("format");
    if (format != "binary" && format != "text") {
        return Status::invalidArgument(
            "param 'format' must be binary or text, got '", format,
            "'");
    }
    return TraceFileStore::instance().make(
        path, format == "binary" ? TraceFileFormat::Binary
                                 : TraceFileFormat::Text);
}

} // namespace

WorkloadRegistry &
WorkloadRegistry::instance()
{
    static WorkloadRegistry registry;
    return registry;
}

WorkloadRegistry::WorkloadRegistry()
{
    const auto mustAdd = [this](WorkloadMethod method) {
        const Status status = add(std::move(method));
        UATM_ASSERT(status.ok(), "builtin workload method: ",
                    status.message());
    };

    mustAdd(WorkloadMethod{
        "none",
        "analytic marker: the scenario touches no trace; "
        "building a source is an error",
        {},
        [](const ParamMap &, std::uint64_t)
            -> Expected<std::unique_ptr<TraceSource>> {
            return Status::invalidArgument(
                "analytic workload spec cannot build a source");
        }});

    mustAdd(WorkloadMethod{
        "spec92",
        "SPEC92-like phase-mix profiles (the paper's six "
        "Figure 1 programs)",
        {ParamSpec{"profile", ParamValue::Type::String,
                   ParamValue::ofString("nasa7"),
                   "one of: " + joinNames(Spec92Profile::names())}},
        [](const ParamMap &params, std::uint64_t seed)
            -> Expected<std::unique_ptr<TraceSource>> {
            const std::string profile = params.getString("profile");
            const auto &known = Spec92Profile::names();
            if (std::find(known.begin(), known.end(), profile) ==
                known.end()) {
                return Status::notFound(
                    "unknown spec92 profile '", profile, "'");
            }
            return std::unique_ptr<TraceSource>(
                Spec92Profile::make(profile, seed));
        }});

    mustAdd(WorkloadMethod{
        "short-levy",
        "multi-scale working-set mix matching the Short & Levy "
        "size/hit-ratio curve",
        {},
        [](const ParamMap &, std::uint64_t seed)
            -> Expected<std::unique_ptr<TraceSource>> {
            return std::unique_ptr<TraceSource>(
                ShortLevyWorkload::make(seed));
        }});

    mustAdd(WorkloadMethod{
        "trace",
        "file-backed replay of a captured trace (trace_tool "
        "--mode generate writes them)",
        {ParamSpec{"path", ParamValue::Type::String,
                   ParamValue::ofString(""),
                   "trace file to replay"},
         ParamSpec{"format", ParamValue::Type::String,
                   ParamValue::ofString("binary"),
                   "binary or text"}},
        [](const ParamMap &params, std::uint64_t)
            -> Expected<std::unique_ptr<TraceSource>> {
            return makeTraceReplay(params);
        }});

    {
        auto params = ycsbParams();
        params.insert(
            params.begin(),
            ParamSpec{"mix", ParamValue::Type::String,
                      ParamValue::ofString("a"),
                      "YCSB core mix a..f"});
        mustAdd(WorkloadMethod{
            "ycsb",
            "YCSB-style key-value stream (zipfian/uniform keys, "
            "mixes a..f)",
            std::move(params),
            [](const ParamMap &params, std::uint64_t seed)
                -> Expected<std::unique_ptr<TraceSource>> {
                auto mix =
                    YcsbWorkload::parseMix(params.getString("mix"));
                if (!mix.ok())
                    return mix.status();
                return makeYcsb(mix.value(), params, seed);
            }});
    }

    static constexpr struct
    {
        const char *name;
        YcsbWorkload::Mix mix;
        const char *doc;
    } kMixes[] = {
        {"ycsb-a", YcsbWorkload::Mix::A,
         "YCSB A: 50% read / 50% update, update heavy"},
        {"ycsb-b", YcsbWorkload::Mix::B,
         "YCSB B: 95% read / 5% update, read mostly"},
        {"ycsb-c", YcsbWorkload::Mix::C, "YCSB C: 100% read"},
        {"ycsb-d", YcsbWorkload::Mix::D,
         "YCSB D: 95% read-latest / 5% insert"},
        {"ycsb-e", YcsbWorkload::Mix::E,
         "YCSB E: 95% short scan / 5% insert"},
        {"ycsb-f", YcsbWorkload::Mix::F,
         "YCSB F: 50% read / 50% read-modify-write"},
    };
    for (const auto &preset : kMixes) {
        const YcsbWorkload::Mix mix = preset.mix;
        mustAdd(WorkloadMethod{
            preset.name, preset.doc, ycsbParams(),
            [mix](const ParamMap &params, std::uint64_t seed) {
                return makeYcsb(mix, params, seed);
            }});
    }

    mustAdd(WorkloadMethod{
        "reuse-dist",
        "synthesizes a stream matching a target reuse-distance "
        "histogram (geometric by default; hist= loads JSON "
        "inline or from a file)",
        {ParamSpec{"hist", ParamValue::Type::String,
                   ParamValue::ofString(""),
                   "target histogram: inline JSON "
                   "('{\"cold\":...,\"weights\":[...]}') or a "
                   "file path; empty uses the geometric knobs"},
         ParamSpec{"depth", ParamValue::Type::Int,
                   ParamValue::ofInt(256),
                   "geometric profile stack depth"},
         ParamSpec{"decay", ParamValue::Type::Double,
                   ParamValue::ofDouble(0.95),
                   "geometric reuse decay in (0, 1]"},
         ParamSpec{"cold", ParamValue::Type::Double,
                   ParamValue::ofDouble(0.02),
                   "compulsory-miss fraction in [0, 1)"},
         ParamSpec{"line-bytes", ParamValue::Type::Int,
                   ParamValue::ofInt(32),
                   "reuse granularity (power of two)"},
         ParamSpec{"store-fraction", ParamValue::Type::Double,
                   ParamValue::ofDouble(0.3),
                   "P(reference is a store)"}},
        [](const ParamMap &params, std::uint64_t seed) {
            return makeReuseDistance(params, seed);
        }});
}

Status
WorkloadRegistry::add(WorkloadMethod method)
{
    if (method.name.empty())
        return Status::invalidArgument(
            "workload method needs a name");
    if (!method.factory) {
        return Status::invalidArgument("workload method '",
                                       method.name,
                                       "' needs a factory");
    }
    for (std::size_t i = 0; i < method.params.size(); ++i) {
        const ParamSpec &spec = method.params[i];
        if (spec.name.empty()) {
            return Status::invalidArgument(
                "workload method '", method.name,
                "' declares an unnamed param");
        }
        if (spec.def.type() != spec.type) {
            return Status::invalidArgument(
                "workload method '", method.name, "' param '",
                spec.name, "' declares ",
                ParamValue::typeNameWithArticle(spec.type),
                " but defaults to ",
                ParamValue::typeNameWithArticle(spec.def.type()));
        }
        for (std::size_t j = i + 1; j < method.params.size();
             ++j) {
            if (method.params[j].name == spec.name) {
                return Status::invalidArgument(
                    "workload method '", method.name,
                    "' declares param '", spec.name, "' twice");
            }
        }
    }

    std::unique_lock lock(mutex_);
    const std::string name = method.name;
    if (!methods_.emplace(name, std::move(method)).second) {
        return Status::invalidArgument("workload method '", name,
                                       "' is already registered");
    }
    return Status();
}

const WorkloadMethod *
WorkloadRegistry::find(const std::string &name) const
{
    std::shared_lock lock(mutex_);
    const auto it = methods_.find(name);
    return it == methods_.end() ? nullptr : &it->second;
}

std::vector<std::string>
WorkloadRegistry::names() const
{
    std::shared_lock lock(mutex_);
    std::vector<std::string> out;
    out.reserve(methods_.size());
    for (const auto &[name, method] : methods_)
        out.push_back(name);
    return out;
}

Expected<ParamMap>
WorkloadRegistry::resolve(const std::string &method,
                          const ParamMap &given) const
{
    const WorkloadMethod *found = find(method);
    if (!found) {
        return Status::notFound("unknown workload method '",
                                method,
                                "' (known: ", joinNames(names()),
                                ")");
    }
    ParamMap resolved;
    for (const auto &spec : found->params)
        resolved.set(spec.name, spec.def);
    for (const auto &entry : given.entries()) {
        const ParamSpec *spec = found->param(entry.name);
        if (!spec) {
            std::string known;
            for (const auto &declared : found->params) {
                if (!known.empty())
                    known += ", ";
                known += declared.name;
            }
            return Status::invalidArgument(
                "workload method '", method,
                "' has no param '", entry.name, "' (params: ",
                known.empty() ? "none" : known, ")");
        }
        auto coerced = entry.value.coerce(spec->type);
        if (!coerced.ok()) {
            return Status::invalidArgument(
                "workload method '", method, "' param '",
                entry.name,
                "': ", coerced.status().message());
        }
        resolved.set(entry.name, std::move(coerced).value());
    }
    return resolved;
}

Expected<std::unique_ptr<TraceSource>>
WorkloadRegistry::make(const std::string &method,
                       const ParamMap &given,
                       std::uint64_t seed) const
{
    auto resolved = resolve(method, given);
    if (!resolved.ok())
        return resolved.status();
    // find() cannot fail after resolve() succeeded; methods are
    // never deregistered.
    const WorkloadMethod *found = find(method);
    return found->factory(resolved.value(), seed);
}

Expected<std::string>
WorkloadRegistry::describe(const std::string &name) const
{
    const WorkloadMethod *found = find(name);
    if (!found) {
        return Status::notFound("unknown workload method '", name,
                                "' (known: ", joinNames(names()),
                                ")");
    }
    std::string out = found->name;
    out += " - ";
    out += found->doc;
    out += '\n';
    if (found->params.empty()) {
        out += "  (no params)\n";
        return out;
    }
    out += "  params:\n";
    for (const auto &spec : found->params) {
        out += "    ";
        out += spec.name;
        out += " (";
        out += ParamValue::typeName(spec.type);
        out += ", default ";
        const std::string def = spec.def.render();
        out += def.empty() ? "\"\"" : def;
        out += "): ";
        out += spec.help;
        out += '\n';
    }
    return out;
}

} // namespace uatm::exp
