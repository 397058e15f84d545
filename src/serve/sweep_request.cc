/**
 * @file
 * Implementation of the sweep-request schema.
 */

#include "serve/sweep_request.hh"

#include <algorithm>
#include <iterator>
#include <type_traits>
#include <utility>

#include "exp/scenarios.hh"
#include "obs/json.hh"

namespace uatm::serve {

namespace {

/**
 * One sweepable cache field.  The "cache" object reads it through
 * @ref json, and the "cache.<key>" axis checks each value with that
 * same reader before @ref set stores it, so set's cast is exact.
 */
struct CacheField
{
    obs::JsonField<CacheConfig> json;
    void (*set)(CacheConfig &, std::uint64_t);
};

template <auto Member>
constexpr CacheField
cacheField(std::string_view key)
{
    return {obs::field<Member>(key),
            [](CacheConfig &config, std::uint64_t v) {
                using Field = std::remove_reference_t<
                    decltype(config.*Member)>;
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

constexpr WriteMissPolicy kWriteMissPolicies[] = {
    WriteMissPolicy::WriteAllocate, WriteMissPolicy::WriteAround};
constexpr WritePolicy kWritePolicies[] = {WritePolicy::WriteBack,
                                          WritePolicy::WriteThrough};
constexpr ReplacementKind kReplacementKinds[] = {
    ReplacementKind::LRU, ReplacementKind::FIFO,
    ReplacementKind::Random, ReplacementKind::TreePLRU};

/** The "cache" object: every kCacheFields entry, then the rest. */
constexpr obs::JsonField<CacheConfig> kCacheObjectFields[] = {
    kCacheFields[0].json,
    kCacheFields[1].json,
    kCacheFields[2].json,
    obs::field<&CacheConfig::writeMiss, &kWriteMissPolicies,
               writeMissPolicyName>("write_miss"),
    obs::field<&CacheConfig::write, &kWritePolicies, writePolicyName>(
        "write"),
    obs::field<&CacheConfig::replacement, &kReplacementKinds,
               replacementKindName>("replacement"),
    obs::field<&CacheConfig::replacementSeed>("replacement_seed"),
};

/** One entry of "axes"; its name decides which list it needs. */
struct AxisDoc
{
    std::string name;
    std::vector<double> values;
    std::vector<exp::WorkloadSpec> specs;
};

const obs::JsonField<AxisDoc> kAxisFields[] = {
    obs::field<&AxisDoc::name>("axis", true),
    obs::field<&AxisDoc::values>("values"),
    obs::field<&AxisDoc::specs>("specs"),
};

/** "a, b, c" for an unknown-name message. */
std::string
joined(const std::vector<std::string> &names)
{
    std::string out;
    for (const std::string &name : names)
        out += (out.empty() ? "" : ", ") + name;
    return out;
}

Status
readAxis(const obs::JsonValue &json, const obs::JsonPath &path,
         exp::Scenario &scenario)
{
    AxisDoc axis;
    if (Status s = obs::readObject(json, path, axis, kAxisFields,
                                   obs::UnknownKeys::Refuse);
        !s.ok())
        return s;
    const bool workload = axis.name == "workload";
    const CacheField *field = std::find_if(
        std::begin(kCacheFields), std::end(kCacheFields),
        [&](const CacheField &f) {
            return axis.name == std::string(kCacheAxisPrefix) +
                                    std::string(f.json.key);
        });
    if (!workload && field == std::end(kCacheFields))
        return Status::notFound("sweep request: unknown axis \"",
                                axis.name, "\" (known: ",
                                joined(serveAxisNames()), ")");
    // Only the workload axis takes "specs"; the others, "values".
    const char *other = workload ? "values" : "specs";
    if (json.find(other))
        return path.key(other).error("is not taken by this axis");
    if (workload ? axis.specs.empty() : axis.values.empty())
        return path.key(workload ? "specs" : "values")
            .error("must be a non-empty array");

    if (workload) {
        scenario.sweepWorkloadSpecs(std::move(axis.specs));
        return Status();
    }
    const obs::JsonPath values = path.key("values");
    CacheConfig checked;
    for (std::size_t i = 0; i < axis.values.size(); ++i) {
        if (Status s = field->json.read(json.at("values").at(i),
                                        values.index(i), checked);
            !s.ok())
            return s;
    }
    scenario.sweep(axis.name, axis.values,
                   [set = field->set](exp::Point &point,
                                      const exp::AxisValue &v) {
                       set(point.cache,
                           static_cast<std::uint64_t>(v.value));
                   });
    return Status();
}

// Name and description come first: the scenario is built around
// them, which resets what the later fields set.
const obs::JsonField<SweepRequest> kRequestFields[] = {
    {"name",
     [](auto &value, auto &path, SweepRequest &request) {
         std::string name;
         Status s = obs::readJson(value, path, name);
         if (s.ok() && name.empty())
             s = path.error("must not be empty");
         request.scenario =
             exp::Scenario(name, request.scenario.description());
         return s;
     }},
    {"description",
     [](auto &value, auto &path, SweepRequest &request) {
         std::string text;
         Status s = obs::readJson(value, path, text);
         request.scenario = exp::Scenario(request.scenario.name(), text);
         return s;
     }},
    obs::field<&SweepRequest::kernel>("kernel"),
    {"refs",
     [](auto &value, auto &path, SweepRequest &request) {
         return obs::readJson(value, path, request.scenario.refs, 1);
     }},
    {"warmup",
     [](auto &value, auto &path, SweepRequest &request) {
         return obs::readJson(value, path, request.scenario.warmupRefs);
     }},
    obs::field<&SweepRequest::threads>("threads"),
    {"workload",
     [](auto &value, auto &path, SweepRequest &request) {
         return obs::readJson(value, path, request.scenario.workload);
     }},
    {"cache",
     [](auto &value, auto &path, SweepRequest &request) {
         return obs::readObject(value, path, request.scenario.cache,
                                kCacheObjectFields,
                                obs::UnknownKeys::Refuse);
     }},
    {"axes",
     [](auto &value, auto &path, SweepRequest &request) {
         std::vector<AxisDoc> axes;
         return obs::readArray(value, path, axes,
                               [&request](const auto &axis,
                                          const auto &at, AxisDoc &) {
                                   return readAxis(axis, at,
                                                   request.scenario);
                               });
     }},
};

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
                        std::string(field.json.key));
    names.push_back("workload");
    return names;
}

Expected<SweepRequest>
parseSweepRequest(std::string_view json)
{
    SweepRequest request;
    if (Status s = obs::readDocument(json, "sweep request", request,
                                     kRequestFields,
                                     obs::UnknownKeys::Refuse);
        !s.ok())
        return s;

    // Both fields are read, or defaulted, by now.  A warm-up longer
    // than the run has no measured window to report.
    if (request.scenario.warmupRefs > request.scenario.refs) {
        return Status::parseError(
            "sweep request: \"warmup\" (", request.scenario.warmupRefs,
            ") must not exceed \"refs\" (", request.scenario.refs,
            ")");
    }

    if (!findServeKernel(request.kernel)) {
        return Status::notFound(
            "sweep request: unknown kernel \"", request.kernel,
            "\" (known: ", joined(serveKernelNames()), ")");
    }
    return request;
}

} // namespace uatm::serve
