/**
 * @file
 * Implementation of the sweep-request schema.
 */

#include "serve/sweep_request.hh"

#include <limits>
#include <type_traits>
#include <utility>

#include "exp/scenarios.hh"
#include "obs/json.hh"

namespace uatm::serve {

namespace {

Status
typeError(const char *object, const std::string &field,
          const char *want)
{
    return Status::parseError("sweep request: \"", object, ".",
                              field, "\" must be ", want);
}

/** An integer field in [0, @p max]; a ParseError naming
 *  "<object>.<field>" otherwise. */
Expected<std::uint64_t>
asUint(const char *object, const std::string &field,
       const obs::JsonValue &value,
       std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    if (!value.isNumber())
        return typeError(object, field, "a number");
    return obs::checkedUint(value.asNumber(), max,
                            "sweep request: \"" + std::string(object) +
                                "." + field + "\"");
}

/** Parse a string field against an enum's name() table. */
template <typename Enum, std::size_t N>
Expected<Enum>
asEnum(const char *object, const std::string &field,
       const obs::JsonValue &value, const Enum (&values)[N],
       const char *(*name)(Enum))
{
    if (!value.isString())
        return typeError(object, field, "a string");
    for (Enum candidate : values) {
        if (value.asString() == name(candidate))
            return candidate;
    }
    std::string known;
    for (Enum candidate : values) {
        if (!known.empty())
            known += ", ";
        known += name(candidate);
    }
    return Status::parseError("sweep request: \"", object, ".",
                              field, "\" must be one of ", known,
                              " (got \"", value.asString(), "\")");
}

/**
 * One sweepable cache field.  The "cache" object and the
 * "cache.<name>" axis both set it through @ref set, each after
 * checking the value against @ref max, so set's cast is exact.
 */
struct CacheField
{
    std::string_view name;
    std::uint64_t max;
    void (*set)(CacheConfig &, std::uint64_t);
};

template <auto Member>
constexpr CacheField
cacheField(std::string_view name)
{
    using Field = std::remove_reference_t<
        decltype(std::declval<CacheConfig &>().*Member)>;
    return {name, std::numeric_limits<Field>::max(),
            [](CacheConfig &config, std::uint64_t v) {
                config.*Member = static_cast<Field>(v);
            }};
}

/** Sorted by wire name; serveAxisNames() lists them in order. */
constexpr CacheField kCacheFields[] = {
    cacheField<&CacheConfig::assoc>("assoc"),
    cacheField<&CacheConfig::lineBytes>("line"),
    cacheField<&CacheConfig::sizeBytes>("size"),
};

constexpr std::string_view kCacheAxisPrefix = "cache.";

const CacheField *
findCacheField(std::string_view name)
{
    for (const CacheField &field : kCacheFields) {
        if (field.name == name)
            return &field;
    }
    return nullptr;
}

Status
parseCacheConfig(const obs::JsonValue &json, CacheConfig &config)
{
    for (const auto &[field, value] : json.members()) {
        if (const CacheField *numeric = findCacheField(field)) {
            auto v = asUint("cache", field, value, numeric->max);
            if (!v.ok())
                return v.status();
            numeric->set(config, v.value());
        } else if (field == "write_miss") {
            constexpr WriteMissPolicy kPolicies[] = {
                WriteMissPolicy::WriteAllocate,
                WriteMissPolicy::WriteAround};
            auto v = asEnum("cache", field, value, kPolicies,
                            writeMissPolicyName);
            if (!v.ok())
                return v.status();
            config.writeMiss = v.value();
        } else if (field == "write") {
            constexpr WritePolicy kPolicies[] = {
                WritePolicy::WriteBack, WritePolicy::WriteThrough};
            auto v = asEnum("cache", field, value, kPolicies,
                            writePolicyName);
            if (!v.ok())
                return v.status();
            config.write = v.value();
        } else if (field == "replacement") {
            constexpr ReplacementKind kKinds[] = {
                ReplacementKind::LRU, ReplacementKind::FIFO,
                ReplacementKind::Random,
                ReplacementKind::TreePLRU};
            auto v = asEnum("cache", field, value, kKinds,
                            replacementKindName);
            if (!v.ok())
                return v.status();
            config.replacement = v.value();
        } else if (field == "replacement_seed") {
            auto v = asUint("cache", field, value);
            if (!v.ok())
                return v.status();
            config.replacementSeed = v.value();
        } else {
            return Status::parseError(
                "sweep request: unknown cache field \"", field,
                "\"");
        }
    }
    return Status();
}

Status
parseAxis(const obs::JsonValue &json, exp::Scenario &scenario)
{
    if (!json.isObject())
        return Status::parseError(
            "sweep request: each axis must be an object");
    const obs::JsonValue *name_json = json.find("axis");
    if (!name_json || !name_json->isString())
        return Status::parseError(
            "sweep request: axis needs a string \"axis\" name");
    const std::string &name = name_json->asString();

    for (const auto &[field, value] : json.members()) {
        (void)value;
        if (field != "axis" && field != "values" &&
            field != "specs") {
            return Status::parseError(
                "sweep request: unknown axis field \"", field,
                "\"");
        }
    }

    if (name == "workload") {
        const obs::JsonValue *specs_json = json.find("specs");
        if (!specs_json || !specs_json->isArray() ||
            specs_json->size() == 0) {
            return Status::parseError(
                "sweep request: the workload axis needs a "
                "non-empty \"specs\" array");
        }
        if (json.find("values")) {
            return Status::parseError(
                "sweep request: the workload axis takes "
                "\"specs\", not \"values\"");
        }
        std::vector<exp::WorkloadSpec> specs;
        specs.reserve(specs_json->size());
        for (const obs::JsonValue &spec_json :
             specs_json->items()) {
            auto spec = exp::WorkloadSpec::fromJson(spec_json);
            if (!spec.ok())
                return spec.status();
            specs.push_back(std::move(spec).value());
        }
        scenario.sweepWorkloadSpecs(std::move(specs));
        return Status();
    }

    const CacheField *field =
        name.starts_with(kCacheAxisPrefix)
            ? findCacheField(std::string_view(name).substr(
                  kCacheAxisPrefix.size()))
            : nullptr;
    if (!field) {
        std::string known;
        for (const std::string &axis : serveAxisNames()) {
            if (!known.empty())
                known += ", ";
            known += axis;
        }
        return Status::notFound("sweep request: unknown axis \"",
                                name, "\" (known: ", known, ")");
    }
    if (json.find("specs")) {
        return Status::parseError(
            "sweep request: only the workload axis takes "
            "\"specs\"");
    }
    const obs::JsonValue *values_json = json.find("values");
    if (!values_json || !values_json->isArray() ||
        values_json->size() == 0) {
        return Status::parseError("sweep request: axis \"", name,
                                  "\" needs a non-empty "
                                  "\"values\" array");
    }
    std::vector<double> values;
    values.reserve(values_json->size());
    for (const obs::JsonValue &value : values_json->items()) {
        if (!value.isNumber()) {
            return Status::parseError(
                "sweep request: axis \"", name,
                "\" values must be numbers");
        }
        auto v = obs::checkedUint(value.asNumber(), field->max,
                                  "sweep request: axis \"" + name +
                                      "\" value");
        if (!v.ok())
            return v.status();
        values.push_back(value.asNumber());
    }
    scenario.sweep(name, values,
                   [set = field->set](exp::Point &point,
                                      const exp::AxisValue &v) {
                       set(point.cache,
                           static_cast<std::uint64_t>(v.value));
                   });
    return Status();
}

/** Every kernel a request can name. */
const std::vector<ServeKernel> &
serveKernels()
{
    // The offline per-point kernel, so a served point renders
    // byte-identically to the same point of runGeometrySweep.
    static const std::vector<ServeKernel> kKernels = {
        {"cache", "cache/v1",
         {"hit_ratio", "miss_ratio", "flush_ratio"},
         exp::priceGeometryPoint},
    };
    return kKernels;
}

} // namespace

const ServeKernel *
findServeKernel(const std::string &name)
{
    for (const ServeKernel &kernel : serveKernels()) {
        if (kernel.name == name)
            return &kernel;
    }
    return nullptr;
}

std::vector<std::string>
serveKernelNames()
{
    std::vector<std::string> names;
    for (const ServeKernel &kernel : serveKernels())
        names.push_back(kernel.name);
    return names;
}

std::vector<std::string>
serveAxisNames()
{
    std::vector<std::string> names;
    for (const CacheField &field : kCacheFields)
        names.push_back(std::string(kCacheAxisPrefix) +
                        std::string(field.name));
    names.push_back("workload");
    return names;
}

Expected<SweepRequest>
parseSweepRequest(std::string_view json)
{
    const auto parsed = obs::parseJson(json);
    if (!parsed)
        return Status::parseError("sweep request: ", parsed.error);
    const obs::JsonValue &root = parsed.value;
    if (!root.isObject())
        return Status::parseError(
            "sweep request must be a JSON object");

    // The scenario is built around its name and description, so
    // they are read first.
    std::string name = "sweep";
    std::string description;
    for (const auto &[field, value] : root.members()) {
        if (field == "name") {
            if (!value.isString())
                return typeError("request", field, "a string");
            if (value.asString().empty())
                return Status::parseError(
                    "sweep request: \"name\" must not be empty");
            name = value.asString();
        } else if (field == "description") {
            if (!value.isString())
                return typeError("request", field, "a string");
            description = value.asString();
        }
    }
    SweepRequest request{.scenario = exp::Scenario(name, description)};
    const obs::JsonValue *axes = nullptr;

    for (const auto &[field, value] : root.members()) {
        if (field == "name" || field == "description") {
            continue;
        } else if (field == "kernel") {
            if (!value.isString())
                return typeError("request", field, "a string");
            request.kernel = value.asString();
        } else if (field == "refs") {
            auto v = asUint("request", field, value);
            if (!v.ok())
                return v.status();
            if (v.value() == 0)
                return Status::parseError(
                    "sweep request: \"refs\" must be positive");
            request.scenario.refs = v.value();
        } else if (field == "warmup") {
            auto v = asUint("request", field, value);
            if (!v.ok())
                return v.status();
            request.scenario.warmupRefs = v.value();
        } else if (field == "threads") {
            auto v = asUint("request", field, value,
                            std::numeric_limits<unsigned>::max());
            if (!v.ok())
                return v.status();
            request.threads = static_cast<unsigned>(v.value());
        } else if (field == "workload") {
            auto spec = exp::WorkloadSpec::fromJson(value);
            if (!spec.ok())
                return spec.status();
            request.scenario.workload = std::move(spec).value();
        } else if (field == "cache") {
            if (!value.isObject())
                return typeError("request", field, "an object");
            const Status status =
                parseCacheConfig(value, request.scenario.cache);
            if (!status.ok())
                return status;
        } else if (field == "axes") {
            if (!value.isArray())
                return typeError("request", field, "an array");
            axes = &value;
        } else {
            return Status::parseError(
                "sweep request: unknown field \"", field, "\"");
        }
    }

    // Both fields are read, or defaulted, by now.  A warm-up longer
    // than the run has no measured window to report.
    if (request.scenario.warmupRefs > request.scenario.refs) {
        return Status::parseError(
            "sweep request: \"warmup\" (", request.scenario.warmupRefs,
            ") must not exceed \"refs\" (", request.scenario.refs,
            ")");
    }

    if (!findServeKernel(request.kernel)) {
        std::string known;
        for (const std::string &kernel : serveKernelNames()) {
            if (!known.empty())
                known += ", ";
            known += kernel;
        }
        return Status::notFound(
            "sweep request: unknown kernel \"", request.kernel,
            "\" (known: ", known, ")");
    }

    if (axes) {
        for (const obs::JsonValue &axis : axes->items()) {
            const Status status =
                parseAxis(axis, request.scenario);
            if (!status.ok())
                return status;
        }
    }
    return request;
}

} // namespace uatm::serve
