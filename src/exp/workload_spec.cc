/**
 * @file
 * Implementation of the declarative workload spec.
 */

#include "exp/workload_spec.hh"

#include <algorithm>
#include <limits>

#include "exp/workload_registry.hh"
#include "obs/json.hh"
#include "trace/generators.hh"
#include "trace/ifetch.hh"
#include "util/options.hh"

namespace uatm::exp {

WorkloadSpec
WorkloadSpec::of(std::string method, ParamMap params,
                 std::uint64_t seed)
{
    WorkloadSpec spec;
    spec.method = std::move(method);
    spec.params = std::move(params);
    spec.seed = seed;
    return spec;
}

WorkloadSpec
WorkloadSpec::spec92(std::string profile, std::uint64_t seed)
{
    ParamMap params;
    params.setString("profile", std::move(profile));
    return of("spec92", std::move(params), seed);
}

WorkloadSpec
WorkloadSpec::shortLevy(std::uint64_t seed)
{
    return of("short-levy", {}, seed);
}

WorkloadSpec
WorkloadSpec::none()
{
    return of("none", {}, 1);
}

Expected<WorkloadSpec>
WorkloadSpec::parse(std::string_view arg, std::uint64_t seed)
{
    std::string_view name = arg;
    std::string_view rest;
    if (const auto colon = arg.find(':');
        colon != std::string_view::npos) {
        name = arg.substr(0, colon);
        rest = arg.substr(colon + 1);
    }

    WorkloadSpec spec;
    spec.method = std::string(name);
    spec.seed = seed;

    auto &registry = WorkloadRegistry::instance();
    if (!registry.find(spec.method)) {
        // Shorthands so pre-registry command lines keep working:
        // a bare Spec92 profile name, and trace_tool's old
        // "shortlevy" spelling.
        const auto &profiles = Spec92Profile::names();
        if (std::find(profiles.begin(), profiles.end(),
                      spec.method) != profiles.end()) {
            spec.params.setString("profile", spec.method);
            spec.method = "spec92";
        } else if (spec.method == "shortlevy") {
            spec.method = "short-levy";
        } else {
            return registry.resolve(spec.method, spec.params)
                .status();
        }
    }

    const WorkloadMethod *found = registry.find(spec.method);
    auto pairs = parseKeyValueList(rest);
    if (!pairs.ok())
        return pairs.status();
    for (const auto &pair : pairs.value()) {
        const ParamSpec *declared = found->param(pair.key);
        if (!declared) {
            // resolve() renders the authoritative message with
            // the declared-param list.
            ParamMap unknown;
            unknown.setString(pair.key, pair.value);
            return registry.resolve(spec.method, unknown).status();
        }
        auto value = ParamValue::parse(declared->type, pair.value);
        if (!value.ok()) {
            return Status::error(value.status().code(),
                                 "workload method '", spec.method,
                                 "' param '", pair.key,
                                 "': ", value.status().message());
        }
        spec.params.set(pair.key, std::move(value).value());
    }

    // Surface bad values eagerly; the spec itself stays minimal
    // (only the explicitly given params).
    auto resolved = registry.resolve(spec.method, spec.params);
    if (!resolved.ok())
        return resolved.status();
    return spec;
}

std::string
WorkloadSpec::shortLabel() const
{
    if (isNone())
        return "analytic";
    if (method == "spec92") {
        if (const ParamValue *profile = params.find("profile"))
            return profile->render();
    }
    std::string out = method;
    if (!params.empty()) {
        out += ':';
        out += params.render();
    }
    return out;
}

std::string
WorkloadSpec::describe() const
{
    if (isNone())
        return "analytic";
    std::string out =
        shortLabel() + " (seed " + std::to_string(seed) + ")";
    if (withIFetch)
        out += " +ifetch";
    return out;
}

Expected<std::string>
WorkloadSpec::toJson() const
{
    if (method.empty()) {
        return Status::invalidArgument(
            "workload spec with an empty method is not "
            "serializable");
    }
    obs::JsonWriter writer;
    writer.beginObject();
    writer.keyValue("method", method);
    writer.key("params");
    params.writeJson(writer);
    writer.keyValue("seed", seed);
    writer.keyValue("ifetch", withIFetch);
    writer.endObject();
    return writer.str();
}

Expected<WorkloadSpec>
WorkloadSpec::fromJson(std::string_view text)
{
    const auto parsed = obs::parseJson(text);
    if (!parsed) {
        return Status::parseError("bad workload spec JSON: ",
                                  parsed.error);
    }
    return fromJson(parsed.value);
}

Expected<WorkloadSpec>
WorkloadSpec::fromJson(const obs::JsonValue &root)
{
    if (!root.isObject()) {
        return Status::parseError(
            "workload spec JSON must be an object");
    }

    WorkloadSpec spec;
    spec.method.clear();
    bool have_method = false;
    for (const auto &[key, value] : root.members()) {
        if (key == "method") {
            if (!value.isString()) {
                return Status::parseError(
                    "workload spec \"method\" must be a string");
            }
            spec.method = value.asString();
            have_method = true;
        } else if (key == "params") {
            auto params = ParamMap::fromJson(value);
            if (!params.ok())
                return params.status();
            spec.params = std::move(params).value();
        } else if (key == "seed") {
            if (!value.isNumber()) {
                return Status::parseError(
                    "workload spec \"seed\" must be a number");
            }
            auto seed = obs::checkedUint(
                value.asNumber(),
                std::numeric_limits<std::uint64_t>::max(),
                "workload spec \"seed\"");
            if (!seed.ok())
                return seed.status();
            spec.seed = seed.value();
        } else if (key == "ifetch") {
            if (!value.isBool()) {
                return Status::parseError(
                    "workload spec \"ifetch\" must be a bool");
            }
            spec.withIFetch = value.asBool();
        } else {
            return Status::parseError(
                "unknown workload spec field \"", key, "\"");
        }
    }
    if (!have_method) {
        return Status::parseError(
            "workload spec needs a \"method\" field");
    }
    return spec;
}

Expected<std::unique_ptr<TraceSource>>
WorkloadSpec::make() const
{
    if (method.empty()) {
        // InvalidArgument, as from toJson(): the served row of
        // such a point (no key) and its offline row must agree.
        return Status::invalidArgument(
            "workload spec with an empty method names no stream");
    }
    auto made =
        WorkloadRegistry::instance().make(method, params, seed);
    if (!made.ok())
        return made.status();
    std::unique_ptr<TraceSource> data = std::move(made).value();
    if (!data) {
        return Status::invalidArgument(
            "workload method '", method, "' factory returned null");
    }
    if (!withIFetch)
        return Expected<std::unique_ptr<TraceSource>>(
            std::move(data));
    return Expected<std::unique_ptr<TraceSource>>(
        std::make_unique<IFetchInterleaver>(
            std::move(data), IFetchConfig{}, Rng(seed ^ 0xf00d)));
}

} // namespace uatm::exp
