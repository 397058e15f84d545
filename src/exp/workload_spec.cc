/**
 * @file
 * Implementation of the declarative workload spec.
 */

#include "exp/workload_spec.hh"

#include <algorithm>

#include "exp/workload_registry.hh"
#include "obs/flags.hh"
#include "obs/json.hh"
#include "trace/generators.hh"
#include "trace/ifetch.hh"

namespace uatm::exp {

Expected<std::vector<KeyValue>>
parseKeyValueList(std::string_view text)
{
    std::vector<KeyValue> pairs;
    if (text.empty())
        return pairs;
    std::size_t start = 0;
    while (start <= text.size()) {
        std::size_t end = text.find(',', start);
        if (end == std::string_view::npos)
            end = text.size();
        const std::string_view item =
            text.substr(start, end - start);
        if (item.empty()) {
            return Status::parseError(
                "empty element in key=value list '",
                std::string(text), "'");
        }
        const std::size_t eq = item.find('=');
        if (eq == std::string_view::npos) {
            return Status::parseError(
                "'", std::string(item),
                "' is not of the form key=value");
        }
        if (eq == 0) {
            return Status::parseError(
                "empty key in '", std::string(item), "'");
        }
        pairs.push_back(KeyValue{std::string(item.substr(0, eq)),
                                 std::string(item.substr(eq + 1))});
        if (end == text.size())
            break;
        start = end + 1;
        if (start == text.size()) {
            return Status::parseError(
                "trailing comma in key=value list '",
                std::string(text), "'");
        }
    }
    return pairs;
}

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
    const std::string document =
        "workload method '" + spec.method + "' params";
    for (const auto &pair : pairs.value()) {
        const ParamSpec *declared = found->param(pair.key);
        // A string param takes its text as typed; resolve() renders
        // the authoritative message for an undeclared one.
        if (!declared || declared->type == ParamValue::Type::String) {
            spec.params.setString(pair.key, pair.value);
            continue;
        }
        auto value = ParamValue::fromJson(
            obs::parseTypedText(pair.value),
            obs::JsonPath(document).key(pair.key));
        if (!value.ok())
            return value.status();
        spec.params.set(pair.key, std::move(value).value());
    }

    // resolve() coerces each value to its declared type, as it does
    // for a JSON spec; the spec itself stays minimal (only the
    // explicitly given params, as read).
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

namespace {

const obs::JsonField<WorkloadSpec> kSpecFields[] = {
    obs::field<&WorkloadSpec::method>("method", true),
    obs::field<&WorkloadSpec::params>("params"),
    obs::field<&WorkloadSpec::seed>("seed"),
    obs::field<&WorkloadSpec::withIFetch>("ifetch"),
};

} // namespace

Expected<WorkloadSpec>
WorkloadSpec::fromJson(std::string_view text)
{
    WorkloadSpec spec;
    if (Status s = obs::readDocument(text, "workload spec", spec,
                                     kSpecFields,
                                     obs::UnknownKeys::Refuse);
        !s.ok())
        return s;
    return spec;
}

Expected<WorkloadSpec>
WorkloadSpec::fromJson(const obs::JsonValue &value,
                       const obs::JsonPath &path)
{
    WorkloadSpec spec;
    if (Status s = obs::readObject(value, path, spec, kSpecFields,
                                   obs::UnknownKeys::Refuse);
        !s.ok())
        return s;
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
