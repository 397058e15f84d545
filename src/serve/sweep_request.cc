/**
 * @file
 * Implementation of the sweep-request schema.
 */

#include "serve/sweep_request.hh"

#include <limits>
#include <map>

#include "cpu/stall_feature.hh"
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

Expected<double>
asNumber(const char *object, const std::string &field,
         const obs::JsonValue &value)
{
    if (!value.isNumber())
        return typeError(object, field, "a number");
    return value.asNumber();
}

template <typename T>
Expected<T>
asUint(const char *object, const std::string &field,
       const obs::JsonValue &value)
{
    auto number = asNumber(object, field, value);
    if (!number.ok())
        return number.status();
    auto v = obs::checkedUint(number.value(),
                              std::numeric_limits<T>::max(),
                              "sweep request: \"" +
                                  std::string(object) + "." + field +
                                  "\"");
    if (!v.ok())
        return v.status();
    return static_cast<T>(v.value());
}

Expected<bool>
asBool(const char *object, const std::string &field,
       const obs::JsonValue &value)
{
    if (!value.isBool())
        return typeError(object, field, "a bool");
    return value.asBool();
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

Status
parseCacheConfig(const obs::JsonValue &json, CacheConfig &config)
{
    for (const auto &[field, value] : json.members()) {
        if (field == "size") {
            auto v = asUint<std::uint64_t>("cache", field, value);
            if (!v.ok())
                return v.status();
            config.sizeBytes = v.value();
        } else if (field == "assoc") {
            auto v = asUint<std::uint32_t>("cache", field, value);
            if (!v.ok())
                return v.status();
            config.assoc = v.value();
        } else if (field == "line") {
            auto v = asUint<std::uint32_t>("cache", field, value);
            if (!v.ok())
                return v.status();
            config.lineBytes = v.value();
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
            auto v = asUint<std::uint64_t>("cache", field, value);
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
parseMemoryConfig(const obs::JsonValue &json, MemoryConfig &config)
{
    for (const auto &[field, value] : json.members()) {
        if (field == "bus_width") {
            auto v = asUint<std::uint32_t>("memory", field, value);
            if (!v.ok())
                return v.status();
            config.busWidthBytes = v.value();
        } else if (field == "cycle_time") {
            auto v = asUint<std::uint64_t>("memory", field, value);
            if (!v.ok())
                return v.status();
            config.cycleTime = v.value();
        } else if (field == "pipelined") {
            auto v = asBool("memory", field, value);
            if (!v.ok())
                return v.status();
            config.pipelined = v.value();
        } else if (field == "pipeline_interval") {
            auto v = asUint<std::uint64_t>("memory", field, value);
            if (!v.ok())
                return v.status();
            config.pipelineInterval = v.value();
        } else {
            return Status::parseError(
                "sweep request: unknown memory field \"", field,
                "\"");
        }
    }
    return Status();
}

Status
parseWriteBufferConfig(const obs::JsonValue &json,
                       WriteBufferConfig &config)
{
    for (const auto &[field, value] : json.members()) {
        if (field == "depth") {
            auto v = asUint<std::uint32_t>("wbuf", field, value);
            if (!v.ok())
                return v.status();
            config.depth = v.value();
        } else if (field == "read_bypass") {
            auto v = asBool("wbuf", field, value);
            if (!v.ok())
                return v.status();
            config.readBypass = v.value();
        } else {
            return Status::parseError(
                "sweep request: unknown wbuf field \"", field,
                "\"");
        }
    }
    return Status();
}

Status
parseCpuConfig(const obs::JsonValue &json, CpuConfig &config)
{
    for (const auto &[field, value] : json.members()) {
        if (field == "feature") {
            constexpr StallFeature kFeatures[] = {
                StallFeature::FS,   StallFeature::BL,
                StallFeature::BNL1, StallFeature::BNL2,
                StallFeature::BNL3, StallFeature::NB};
            auto v = asEnum("cpu", field, value, kFeatures,
                            stallFeatureName);
            if (!v.ok())
                return v.status();
            config.feature = v.value();
        } else if (field == "mshrs") {
            auto v = asUint<std::uint32_t>("cpu", field, value);
            if (!v.ok())
                return v.status();
            config.mshrs = v.value();
        } else if (field == "suppress_flush") {
            auto v = asBool("cpu", field, value);
            if (!v.ok())
                return v.status();
            config.suppressFlushTraffic = v.value();
        } else if (field == "prefetch") {
            constexpr PrefetchPolicy kPolicies[] = {
                PrefetchPolicy::None, PrefetchPolicy::OnMiss,
                PrefetchPolicy::Tagged};
            auto v = asEnum("cpu", field, value, kPolicies,
                            prefetchPolicyName);
            if (!v.ok())
                return v.status();
            config.prefetch = v.value();
        } else {
            return Status::parseError(
                "sweep request: unknown cpu field \"", field,
                "\"");
        }
    }
    return Status();
}

/** Re-render a parsed subtree to JSON text, so the workload spec
 *  can reuse WorkloadSpec::fromJson's strict schema validation. */
void
writeJsonValue(obs::JsonWriter &writer,
               const obs::JsonValue &value)
{
    switch (value.kind()) {
      case obs::JsonValue::Kind::Null:
        writer.rawValue("null");
        return;
      case obs::JsonValue::Kind::Bool:
        writer.value(value.asBool());
        return;
      case obs::JsonValue::Kind::Number:
        writer.value(value.asNumber());
        return;
      case obs::JsonValue::Kind::String:
        writer.value(value.asString());
        return;
      case obs::JsonValue::Kind::Array:
        writer.beginArray();
        for (const obs::JsonValue &item : value.items())
            writeJsonValue(writer, item);
        writer.endArray();
        return;
      case obs::JsonValue::Kind::Object:
        writer.beginObject();
        for (const auto &[key, member] : value.members()) {
            writer.key(key);
            writeJsonValue(writer, member);
        }
        writer.endObject();
        return;
    }
}

Expected<exp::WorkloadSpec>
workloadFromJsonValue(const obs::JsonValue &value)
{
    obs::JsonWriter writer;
    writeJsonValue(writer, value);
    return exp::WorkloadSpec::fromJson(writer.str());
}

/** One registered sweepable knob. */
struct AxisEntry
{
    exp::Scenario::Applier apply;

    /** Largest value the knob's field holds.  parseAxis rejects
     *  any axis value above it, so apply's cast is exact. */
    std::uint64_t max;
};

/** The axis that sets @p field of the point's @p config. */
template <typename Config, typename Field>
AxisEntry
fieldAxis(Config exp::Point::*config, Field Config::*field)
{
    return {[config, field](exp::Point &p, const exp::AxisValue &v) {
                (p.*config).*field = static_cast<Field>(v.value);
            },
            std::numeric_limits<Field>::max()};
}

const std::map<std::string, AxisEntry> &
axisRegistry()
{
    static const std::map<std::string, AxisEntry> kAxes = {
        {"cache.size",
         fieldAxis(&exp::Point::cache, &CacheConfig::sizeBytes)},
        {"cache.assoc",
         fieldAxis(&exp::Point::cache, &CacheConfig::assoc)},
        {"cache.line",
         fieldAxis(&exp::Point::cache, &CacheConfig::lineBytes)},
        {"memory.bus_width",
         fieldAxis(&exp::Point::memory,
                   &MemoryConfig::busWidthBytes)},
        {"memory.cycle_time",
         fieldAxis(&exp::Point::memory, &MemoryConfig::cycleTime)},
        {"memory.pipeline_interval",
         fieldAxis(&exp::Point::memory,
                   &MemoryConfig::pipelineInterval)},
        {"wbuf.depth",
         fieldAxis(&exp::Point::writeBuffer,
                   &WriteBufferConfig::depth)},
        {"cpu.mshrs", fieldAxis(&exp::Point::cpu, &CpuConfig::mshrs)},
    };
    return kAxes;
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
            auto spec = workloadFromJsonValue(spec_json);
            if (!spec.ok())
                return spec.status();
            specs.push_back(std::move(spec).value());
        }
        scenario.sweepWorkloadSpecs(std::move(specs));
        return Status();
    }

    const auto it = axisRegistry().find(name);
    if (it == axisRegistry().end()) {
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
        auto v = obs::checkedUint(value.asNumber(), it->second.max,
                                  "sweep request: axis \"" + name +
                                      "\" value");
        if (!v.ok())
            return v.status();
        values.push_back(value.asNumber());
    }
    scenario.sweep(name, values, it->second.apply);
    return Status();
}

} // namespace

const ServeKernel *
findServeKernel(const std::string &name)
{
    // The offline per-point kernel, so a served point renders
    // byte-identically to the same point of runGeometrySweep.
    static const std::vector<ServeKernel> kKernels = {
        {"cache", "cache/v1",
         {"hit_ratio", "miss_ratio", "flush_ratio"},
         exp::priceGeometryPoint},
    };
    for (const ServeKernel &kernel : kKernels) {
        if (kernel.name == name)
            return &kernel;
    }
    return nullptr;
}

std::vector<std::string>
serveKernelNames()
{
    return {"cache"};
}

std::vector<std::string>
serveAxisNames()
{
    std::vector<std::string> names;
    names.reserve(axisRegistry().size() + 1);
    for (const auto &[name, entry] : axisRegistry()) {
        (void)entry;
        names.push_back(name);
    }
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

    SweepRequest request;
    std::string name = "sweep";
    std::string description;
    const obs::JsonValue *axes = nullptr;

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
        } else if (field == "kernel") {
            if (!value.isString())
                return typeError("request", field, "a string");
            request.kernel = value.asString();
        } else if (field == "refs") {
            auto v = asUint<std::uint64_t>("request", field, value);
            if (!v.ok())
                return v.status();
            if (v.value() == 0)
                return Status::parseError(
                    "sweep request: \"refs\" must be positive");
            request.scenario.refs = v.value();
        } else if (field == "warmup") {
            auto v = asUint<std::uint64_t>("request", field, value);
            if (!v.ok())
                return v.status();
            request.scenario.warmupRefs = v.value();
        } else if (field == "threads") {
            auto v = asUint<unsigned>("request", field, value);
            if (!v.ok())
                return v.status();
            request.threads = v.value();
        } else if (field == "workload") {
            auto spec = workloadFromJsonValue(value);
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
        } else if (field == "memory") {
            if (!value.isObject())
                return typeError("request", field, "an object");
            const Status status =
                parseMemoryConfig(value, request.scenario.memory);
            if (!status.ok())
                return status;
        } else if (field == "wbuf") {
            if (!value.isObject())
                return typeError("request", field, "an object");
            const Status status = parseWriteBufferConfig(
                value, request.scenario.writeBuffer);
            if (!status.ok())
                return status;
        } else if (field == "cpu") {
            if (!value.isObject())
                return typeError("request", field, "an object");
            const Status status =
                parseCpuConfig(value, request.scenario.cpu);
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

    // The scenario was default-constructed before name/description
    // were known; rebuild it around them, keeping the parsed
    // configuration.
    exp::Scenario scenario(name, description);
    scenario.cache = request.scenario.cache;
    scenario.memory = request.scenario.memory;
    scenario.writeBuffer = request.scenario.writeBuffer;
    scenario.cpu = request.scenario.cpu;
    scenario.workload = request.scenario.workload;
    scenario.refs = request.scenario.refs;
    scenario.warmupRefs = request.scenario.warmupRefs;
    request.scenario = std::move(scenario);

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
