/**
 * @file
 * Tests for the registered workload-method layer: typed ParamMaps,
 * the process-wide WorkloadRegistry, and the declarative
 * WorkloadSpec (CLI parse, JSON round-trip, error-row degradation).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/sweep.hh"
#include "exp/param_map.hh"
#include "exp/runner.hh"
#include "exp/scenario.hh"
#include "exp/workload_registry.hh"
#include "exp/workload_spec.hh"
#include "trace/generators.hh"
#include "trace/io.hh"
#include "trace/reuse_distance.hh"
#include "trace/source.hh"
#include "util/status.hh"

namespace uatm {
namespace exp {
namespace {

// ----------------------------------------------------- ParamValue

TEST(ParamValue, ParsesEachDeclaredType)
{
    auto s = ParamValue::parse(ParamValue::Type::String, "abc");
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(s.value().asString(), "abc");

    auto i = ParamValue::parse(ParamValue::Type::Int, "100000");
    ASSERT_TRUE(i.ok());
    EXPECT_EQ(i.value().asInt(), 100000);

    auto d = ParamValue::parse(ParamValue::Type::Double, "0.99");
    ASSERT_TRUE(d.ok());
    EXPECT_DOUBLE_EQ(d.value().asDouble(), 0.99);

    auto b = ParamValue::parse(ParamValue::Type::Bool, "true");
    ASSERT_TRUE(b.ok());
    EXPECT_TRUE(b.value().asBool());
}

TEST(ParamValue, IntAcceptsIntegralScientificNotation)
{
    auto v = ParamValue::parse(ParamValue::Type::Int, "1e6");
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v.value().asInt(), 1000000);
}

TEST(ParamValue, IntOverflowIsOutOfRange)
{
    auto v = ParamValue::parse(ParamValue::Type::Int,
                               "99999999999999999999999");
    ASSERT_FALSE(v.ok());
    EXPECT_EQ(v.status().code(), ErrorCode::OutOfRange);
}

TEST(ParamValue, DoublesMustBeFinite)
{
    // A double param holds the value its rendering parses back to,
    // and no infinity or NaN has a rendering that does.
    auto nan = ParamValue::parse(ParamValue::Type::Double, "nan");
    ASSERT_FALSE(nan.ok());
    EXPECT_EQ(nan.status().code(), ErrorCode::ParseError);
    for (const char *huge : {"inf", "-inf", "1e999"}) {
        auto v = ParamValue::parse(ParamValue::Type::Double, huge);
        ASSERT_FALSE(v.ok()) << huge;
        EXPECT_EQ(v.status().code(), ErrorCode::OutOfRange) << huge;
    }
}

TEST(ParamValue, MalformedNumbersAreParseErrors)
{
    for (auto type :
         {ParamValue::Type::Int, ParamValue::Type::Double}) {
        auto v = ParamValue::parse(type, "oops");
        ASSERT_FALSE(v.ok());
        EXPECT_EQ(v.status().code(), ErrorCode::ParseError);
    }
    auto b = ParamValue::parse(ParamValue::Type::Bool, "maybe");
    ASSERT_FALSE(b.ok());
    EXPECT_EQ(b.status().code(), ErrorCode::ParseError);
}

TEST(ParamValue, CoercionFollowsTheJsonNumberRules)
{
    // Int widens to Double ...
    auto widened =
        ParamValue::ofInt(3).coerce(ParamValue::Type::Double);
    ASSERT_TRUE(widened.ok());
    EXPECT_DOUBLE_EQ(widened.value().asDouble(), 3.0);

    // ... an integral Double narrows to Int ...
    auto narrowed =
        ParamValue::ofDouble(1e6).coerce(ParamValue::Type::Int);
    ASSERT_TRUE(narrowed.ok());
    EXPECT_EQ(narrowed.value().asInt(), 1000000);

    // ... and a fractional Double does not.
    auto bad =
        ParamValue::ofDouble(0.5).coerce(ParamValue::Type::Int);
    EXPECT_FALSE(bad.ok());

    // Strings never coerce to numbers.
    auto worse = ParamValue::ofString("5").coerce(
        ParamValue::Type::Int);
    EXPECT_FALSE(worse.ok());
}

TEST(ParamValue, RenderIsCanonical)
{
    EXPECT_EQ(ParamValue::ofInt(1000000).render(), "1000000");
    EXPECT_EQ(ParamValue::ofDouble(0.99).render(), "0.99");
    EXPECT_EQ(ParamValue::ofBool(false).render(), "false");
    EXPECT_EQ(ParamValue::ofString("nasa7").render(), "nasa7");
}

// ------------------------------------------------------- ParamMap

TEST(ParamMap, EntriesStaySortedByName)
{
    ParamMap map;
    map.setInt("records", 1000);
    map.setDouble("theta", 0.9);
    map.setString("dist", "uniform");
    ASSERT_EQ(map.size(), 3u);
    EXPECT_EQ(map.entries()[0].name, "dist");
    EXPECT_EQ(map.entries()[1].name, "records");
    EXPECT_EQ(map.entries()[2].name, "theta");
    EXPECT_EQ(map.render(), "dist=uniform,records=1000,theta=0.9");
}

TEST(ParamMap, SetOverwritesAndFindReportsAbsence)
{
    ParamMap map;
    map.setInt("n", 1);
    map.setInt("n", 2);
    ASSERT_EQ(map.size(), 1u);
    EXPECT_EQ(map.getInt("n"), 2);
    EXPECT_EQ(map.find("missing"), nullptr);
}

TEST(ParamMap, InsertionOrderDoesNotAffectEquality)
{
    ParamMap a;
    a.setInt("x", 1);
    a.setString("y", "z");
    ParamMap b;
    b.setString("y", "z");
    b.setInt("x", 1);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.render(), b.render());
}

// ----------------------------------------------- WorkloadRegistry

TEST(WorkloadRegistry, BuiltinsAreRegistered)
{
    const auto names = WorkloadRegistry::instance().names();
    for (const char *expected :
         {"none", "spec92", "short-levy", "trace", "ycsb",
          "ycsb-a", "ycsb-b", "ycsb-c", "ycsb-d", "ycsb-e",
          "ycsb-f", "reuse-dist"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), expected),
                  names.end())
            << expected;
    }
    EXPECT_EQ(WorkloadRegistry::instance().find("nosuch"), nullptr);
}

TEST(WorkloadRegistry, ResolveMergesDeclaredDefaults)
{
    const auto resolved =
        WorkloadRegistry::instance().resolve("ycsb", ParamMap{});
    ASSERT_TRUE(resolved.ok());
    EXPECT_EQ(resolved.value().getInt("records"), 100000);
    EXPECT_DOUBLE_EQ(resolved.value().getDouble("theta"), 0.99);
    EXPECT_EQ(resolved.value().getString("mix"), "a");
}

TEST(WorkloadRegistry, ResolveCoercesNumbersToDeclaredTypes)
{
    ParamMap given;
    given.setDouble("records", 1e6); // JSON-style integral double
    const auto resolved =
        WorkloadRegistry::instance().resolve("ycsb", given);
    ASSERT_TRUE(resolved.ok());
    const ParamValue *records = resolved.value().find("records");
    ASSERT_NE(records, nullptr);
    EXPECT_EQ(records->type(), ParamValue::Type::Int);
    EXPECT_EQ(records->asInt(), 1000000);
}

TEST(WorkloadRegistry, UnknownMethodIsNotFoundAndListsKnownOnes)
{
    const auto resolved = WorkloadRegistry::instance().resolve(
        "nosuchmethod", ParamMap{});
    ASSERT_FALSE(resolved.ok());
    EXPECT_EQ(resolved.status().code(), ErrorCode::NotFound);
    EXPECT_NE(resolved.status().message().find("spec92"),
              std::string::npos);
}

TEST(WorkloadRegistry, UnknownParamListsTheDeclaredOnes)
{
    ParamMap given;
    given.setInt("bogus", 1);
    const auto resolved =
        WorkloadRegistry::instance().resolve("ycsb", given);
    ASSERT_FALSE(resolved.ok());
    EXPECT_EQ(resolved.status().code(),
              ErrorCode::InvalidArgument);
    EXPECT_NE(resolved.status().message().find("records"),
              std::string::npos);
}

TEST(WorkloadRegistry, BadParamValuesDegradeToStatus)
{
    // In-range value works ...
    ParamMap ok_params;
    ok_params.setDouble("theta", 0.5);
    EXPECT_TRUE(WorkloadRegistry::instance()
                    .make("ycsb", ok_params, 1)
                    .ok());
    // ... out-of-range theta and unknown profile are typed errors.
    ParamMap bad_theta;
    bad_theta.setDouble("theta", 1.5);
    EXPECT_FALSE(WorkloadRegistry::instance()
                     .make("ycsb", bad_theta, 1)
                     .ok());
    ParamMap bad_profile;
    bad_profile.setString("profile", "mcf");
    const auto made = WorkloadRegistry::instance().make(
        "spec92", bad_profile, 1);
    ASSERT_FALSE(made.ok());
    EXPECT_EQ(made.status().code(), ErrorCode::NotFound);
}

TEST(WorkloadRegistry, AddRejectsBadRegistrations)
{
    auto &registry = WorkloadRegistry::instance();

    WorkloadMethod unnamed;
    unnamed.factory = [](const ParamMap &, std::uint64_t)
        -> Expected<std::unique_ptr<TraceSource>> {
        return Status::invalidArgument("unused");
    };
    EXPECT_FALSE(registry.add(unnamed).ok());

    WorkloadMethod factoryless;
    factoryless.name = "no-factory";
    EXPECT_FALSE(registry.add(factoryless).ok());

    WorkloadMethod duplicate;
    duplicate.name = "ycsb";
    duplicate.factory = unnamed.factory;
    EXPECT_FALSE(registry.add(duplicate).ok());

    WorkloadMethod mistyped;
    mistyped.name = "mistyped-default";
    mistyped.factory = unnamed.factory;
    mistyped.params.push_back(ParamSpec{
        "n", ParamValue::Type::Int,
        ParamValue::ofString("not an int"), "broken"});
    EXPECT_FALSE(registry.add(mistyped).ok());
}

TEST(WorkloadRegistry, UserMethodsRegisterAndServeSpecs)
{
    // The EXPERIMENTS.md "registering a workload method" recipe.
    WorkloadMethod method;
    method.name = "test-stride";
    method.doc = "fixed-stride probe stream (test only)";
    method.params.push_back(
        ParamSpec{"elements", ParamValue::Type::Int,
                  ParamValue::ofInt(64), "array elements"});
    method.factory = [](const ParamMap &params, std::uint64_t seed)
        -> Expected<std::unique_ptr<TraceSource>> {
        StrideGenerator::Config config;
        config.elements =
            static_cast<std::uint64_t>(params.getInt("elements"));
        std::unique_ptr<TraceSource> source =
            std::make_unique<StrideGenerator>(config, Rng(seed));
        return source;
    };
    ASSERT_TRUE(
        WorkloadRegistry::instance().add(std::move(method)).ok());

    const auto spec =
        WorkloadSpec::parse("test-stride:elements=32", 9);
    ASSERT_TRUE(spec.ok());
    auto a = spec.value().make();
    auto b = spec.value().make();
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.value()->drain(200), b.value()->drain(200));

    // And the JSON path round-trips it like any builtin.
    const auto json = spec.value().toJson();
    ASSERT_TRUE(json.ok());
    const auto back = WorkloadSpec::fromJson(json.value());
    ASSERT_TRUE(back.ok());
    auto c = back.value().make();
    ASSERT_TRUE(c.ok());
    auto fresh = spec.value().make();
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(fresh.value()->drain(200), c.value()->drain(200));
}

TEST(WorkloadRegistry, DescribeDocumentsParams)
{
    const auto text =
        WorkloadRegistry::instance().describe("reuse-dist");
    ASSERT_TRUE(text.ok());
    for (const char *param :
         {"hist", "depth", "decay", "cold", "line-bytes"}) {
        EXPECT_NE(text.value().find(param), std::string::npos)
            << param;
    }
    EXPECT_FALSE(
        WorkloadRegistry::instance().describe("nosuch").ok());
}

// --------------------------------------- WorkloadSpec, CLI parse

TEST(WorkloadSpecParse, BareSpec92ProfileNamesStillWork)
{
    const auto spec = WorkloadSpec::parse("nasa7", 3);
    ASSERT_TRUE(spec.ok());
    EXPECT_EQ(spec.value().method, "spec92");
    EXPECT_EQ(spec.value().params.getString("profile"), "nasa7");
    EXPECT_EQ(spec.value().seed, 3u);
    EXPECT_EQ(spec.value().shortLabel(), "nasa7");

    const auto levy = WorkloadSpec::parse("shortlevy", 1);
    ASSERT_TRUE(levy.ok());
    EXPECT_EQ(levy.value().method, "short-levy");
}

TEST(WorkloadSpecParse, MethodWithParamsParsesTypedValues)
{
    const auto spec =
        WorkloadSpec::parse("ycsb-a:theta=0.9,records=1e6", 2);
    ASSERT_TRUE(spec.ok());
    EXPECT_EQ(spec.value().method, "ycsb-a");
    EXPECT_DOUBLE_EQ(spec.value().params.getDouble("theta"), 0.9);
    EXPECT_EQ(spec.value().params.getInt("records"), 1000000);
    ASSERT_TRUE(spec.value().make().ok());
}

TEST(WorkloadSpecParse, DoubleParamsRoundLikeJsonParams)
{
    // A point key renders a double param to 12 significant digits,
    // so the CLI-parsed param holds that rendered value, as one
    // read from JSON does, and the JSON round trip keeps it.
    const auto spec =
        WorkloadSpec::parse("ycsb-a:theta=0.98765432109876", 1);
    ASSERT_TRUE(spec.ok()) << spec.status().toString();
    EXPECT_EQ(spec.value().params.getDouble("theta"),
              0.987654321099);
    const auto json = spec.value().toJson();
    ASSERT_TRUE(json.ok());
    const auto back = WorkloadSpec::fromJson(json.value());
    ASSERT_TRUE(back.ok()) << back.status().toString();
    EXPECT_EQ(back.value().params, spec.value().params);
}

TEST(WorkloadSpecParse, ErrorsAreTypedAndNameTheContext)
{
    const auto unknown = WorkloadSpec::parse("nosuchmethod", 1);
    ASSERT_FALSE(unknown.ok());
    EXPECT_EQ(unknown.status().code(), ErrorCode::NotFound);

    const auto bad_value = WorkloadSpec::parse("ycsb:theta=oops", 1);
    ASSERT_FALSE(bad_value.ok());
    EXPECT_NE(bad_value.status().message().find("theta"),
              std::string::npos);

    const auto bad_param = WorkloadSpec::parse("ycsb:bogus=1", 1);
    ASSERT_FALSE(bad_param.ok());
    EXPECT_EQ(bad_param.status().code(),
              ErrorCode::InvalidArgument);

    const auto bad_list = WorkloadSpec::parse("ycsb:theta", 1);
    ASSERT_FALSE(bad_list.ok());
    EXPECT_EQ(bad_list.status().code(), ErrorCode::ParseError);
}

// --------------------------------------- WorkloadSpec, JSON

/** A temp trace file so the "trace" method can build sources. */
std::string
writeTempTrace()
{
    Trace trace;
    Rng rng(7);
    for (int i = 0; i < 64; ++i) {
        MemoryReference ref;
        ref.size = 4;
        ref.addr = alignDown(rng.nextBelow(1 << 14), ref.size);
        ref.kind =
            rng.nextBool(0.3) ? RefKind::Store : RefKind::Load;
        trace.append(ref);
    }
    const std::string path =
        ::testing::TempDir() + "uatm_registry_test.trc";
    EXPECT_TRUE(BinaryTraceFormat::writeFile(trace, path).ok());
    return path;
}

TEST(WorkloadSpecJson, EveryRegisteredMethodRoundTrips)
{
    const std::string trace_path = writeTempTrace();
    for (const auto &name : WorkloadRegistry::instance().names()) {
        WorkloadSpec spec = WorkloadSpec::of(name, {}, 11);
        if (name == "trace") {
            spec.params.setString("path", trace_path);
            spec.params.setString("format", "binary");
        }
        const auto json = spec.toJson();
        ASSERT_TRUE(json.ok()) << name;
        const auto back = WorkloadSpec::fromJson(json.value());
        ASSERT_TRUE(back.ok()) << name << ": " << json.value();

        // The round-trip preserves the spec field for field and
        // re-renders byte-identically.
        EXPECT_EQ(back.value().method, spec.method) << name;
        EXPECT_EQ(back.value().params, spec.params) << name;
        EXPECT_EQ(back.value().seed, spec.seed) << name;
        EXPECT_EQ(back.value().withIFetch, spec.withIFetch) << name;
        const auto json2 = back.value().toJson();
        ASSERT_TRUE(json2.ok()) << name;
        EXPECT_EQ(json.value(), json2.value()) << name;

        // And the deserialized spec builds the same byte stream
        // (or fails identically, for the analytic marker).
        auto original = spec.make();
        auto restored = back.value().make();
        ASSERT_EQ(original.ok(), restored.ok()) << name;
        if (original.ok()) {
            EXPECT_EQ(original.value()->drain(300),
                      restored.value()->drain(300))
                << name;
        } else {
            EXPECT_EQ(original.status().code(),
                      restored.status().code())
                << name;
        }
    }
}

// ------------------------------------ golden stream digests
//
// Every stream a workload method emits is pinned byte for byte:
// the constants below were computed before any generator was
// optimised, so a fast path that changes one random draw, its
// order, or the rounding of any expression fails here.

/** FNV-1a over each reference's (addr, size, kind, gap), or over
 *  the bytes of a text. */
class StreamDigest
{
  public:
    void add(const MemoryReference &ref)
    {
        mix(ref.addr, 8);
        mix(ref.size, 1);
        mix(static_cast<std::uint64_t>(ref.kind), 1);
        mix(ref.gap, 4);
    }

    void add(const std::string &text)
    {
        for (const char c : text)
            mix(static_cast<unsigned char>(c), 1);
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 14695981039346656037ull;

    void mix(std::uint64_t word, int bytes)
    {
        for (int i = 0; i < bytes; ++i) {
            hash_ ^= (word >> (8 * i)) & 0xff;
            hash_ *= 1099511628211ull;
        }
    }
};

constexpr std::size_t kGoldenRefs = 100000;

/** Digest of the first kGoldenRefs references, one next() each. */
std::uint64_t
digestByNext(TraceSource &source)
{
    StreamDigest digest;
    for (std::size_t i = 0; i < kGoldenRefs; ++i) {
        const auto ref = source.next();
        if (!ref)
            break;
        digest.add(*ref);
    }
    return digest.value();
}

/** The same digest, pulled through fillBatch in uneven chunks. */
std::uint64_t
digestByBatch(TraceSource &source)
{
    StreamDigest digest;
    std::vector<MemoryReference> buffer(997);
    std::size_t seen = 0;
    while (seen < kGoldenRefs) {
        const std::size_t want =
            std::min(buffer.size(), kGoldenRefs - seen);
        const std::size_t got = source.fillBatch(buffer.data(), want);
        for (std::size_t i = 0; i < got; ++i)
            digest.add(buffer[i]);
        seen += got;
        if (got < want)
            break;
    }
    return digest.value();
}

/** Marks a spec whose make() must fail (no stream to pin). */
constexpr std::uint64_t kNoStream = 0;

/** Expect @p spec's stream, by next() and by fillBatch, to hash
 *  to @p expected. */
void
expectGoldenStream(const WorkloadSpec &spec, std::uint64_t expected,
                   const std::string &label)
{
    auto by_next = spec.make();
    if (expected == kNoStream) {
        EXPECT_FALSE(by_next.ok()) << label;
        return;
    }
    ASSERT_TRUE(by_next.ok()) << label << ": "
                              << by_next.status().message();
    auto by_batch = okOrThrow(spec.make());
    const std::uint64_t next_digest = digestByNext(*by_next.value());
    EXPECT_EQ(next_digest, expected)
        << label << ": actual 0x" << std::hex << next_digest;
    EXPECT_EQ(digestByBatch(*by_batch), expected)
        << label << " (fillBatch)";
}

TEST(GoldenStreamDigest, EveryRegisteredMethodAtDefaults)
{
    struct Golden
    {
        const char *method;
        std::uint64_t seed1;
        std::uint64_t seed2;
    };
    // "trace" replays writeTempTrace()'s fixed 64 references, so
    // its digest does not depend on the seed.
    static const Golden kGolden[] = {
        {"none", kNoStream, kNoStream},
        {"spec92", 0xc784809d80a66880ull, 0x8b2d6ca968338ab6ull},
        {"short-levy", 0xe6e5206e414d9dd1ull, 0x3c47712e9c6d8a4full},
        {"trace", 0x94f579081ee18eafull, 0x94f579081ee18eafull},
        {"ycsb", 0x5d06b2f9d7c0a996ull, 0x741c360df4c9af19ull},
        {"ycsb-a", 0x5d06b2f9d7c0a996ull, 0x741c360df4c9af19ull},
        {"ycsb-b", 0x13219df909d8c72eull, 0xec2e8e9222a4f4b1ull},
        {"ycsb-c", 0xf8170cd54f5545daull, 0xd82f21d694c12e69ull},
        {"ycsb-d", 0x868ca7cd0f81ff53ull, 0x2df684c2b0bdd1aull},
        {"ycsb-e", 0x93e931ca56e961caull, 0x69589bff4772d23dull},
        {"ycsb-f", 0x59093d8af0dbe5b7ull, 0xb9ddf6c755c6f8c3ull},
        {"reuse-dist", 0xe6f0715c8f3bf201ull, 0xae500238a44820b7ull},
        // Registered by UserMethodsRegisterAndServeSpecs when the
        // whole binary runs in one process.
        {"test-stride", 0xb1fa09f6c0dccb4ull, 0xd396de53ca5c2c0full},
    };
    const std::string trace_path = writeTempTrace();
    for (const auto &name : WorkloadRegistry::instance().names()) {
        const auto *golden = std::find_if(
            std::begin(kGolden), std::end(kGolden),
            [&](const Golden &g) { return name == g.method; });
        if (golden == std::end(kGolden)) {
            ADD_FAILURE() << "registered method '" << name
                          << "' has no golden stream digest";
            continue;
        }
        for (const auto &[seed, digest] :
             {std::pair{std::uint64_t{1}, golden->seed1},
              std::pair{std::uint64_t{7}, golden->seed2}}) {
            WorkloadSpec spec = WorkloadSpec::of(name, {}, seed);
            if (name == "trace") {
                spec.params.setString("path", trace_path);
                spec.params.setString("format", "binary");
            }
            expectGoldenStream(spec, digest,
                               name + " seed " +
                                   std::to_string(seed));
        }
    }
}

TEST(GoldenStreamDigest, NamedWorkloads)
{
    struct Golden
    {
        const char *spec;
        std::uint64_t digest;
    };
    static const Golden kGolden[] = {
        {"spec92:profile=nasa7", 0x88539408cac0a5c1ull},
        {"spec92:profile=swm256", 0xfcff29494efd988full},
        {"spec92:profile=wave5", 0x82ff723c56217567ull},
        {"spec92:profile=ear", 0x253227c7a0a51c6cull},
        {"spec92:profile=doduc", 0x7b30d27336f54f5eull},
        {"spec92:profile=hydro2d", 0xf52e2a0397f35d3full},
        {"short-levy", 0x289d7c09b7c51bf1ull},
        {"ycsb-a", 0x160af7f2f767d895ull},
        {"ycsb-b", 0xa08cdf6e82c83af5ull},
        {"ycsb-c", 0xd5aabbd7dbeda305ull},
        {"ycsb-d", 0xe07ca1691d88c20eull},
        {"ycsb-e", 0x5f4ceecd81f93feeull},
        {"ycsb-f", 0xa056da25fd1d3a91ull},
        {"ycsb-a:dist=uniform", 0xa4286669ba9f90c1ull},
        {"reuse-dist", 0xa82828c7d6295ba7ull},
        {"reuse-dist:depth=8", 0xedd7e6c1c95c01c0ull},
    };
    for (const Golden &golden : kGolden) {
        expectGoldenStream(
            valueOrFatal(WorkloadSpec::parse(golden.spec, 3)),
            golden.digest, golden.spec);
    }

    // A histogram with commas in it cannot go through the
    // --workload syntax; set it as a param.
    WorkloadSpec inline_hist = WorkloadSpec::of("reuse-dist", {}, 3);
    inline_hist.params.setString(
        "hist",
        "{\"cold\":0.05,\"weights\":[4,0,2,1,0.5,0.25,0,0.125]}");
    expectGoldenStream(inline_hist, 0x89e86e6d136621fbull,
                       "reuse-dist:hist=");

    WorkloadSpec ifetch =
        valueOrFatal(WorkloadSpec::parse("spec92:profile=doduc", 3));
    ifetch.withIFetch = true;
    expectGoldenStream(ifetch, 0x46c602c449aa9ae8ull, "doduc +ifetch");
}

TEST(GoldenStreamDigest, BareWorkingSetGenerator)
{
    // The default config's 2% cold fraction exercises the
    // new-block path far more than any profile does.
    WorkingSetGenerator by_next(WorkingSetGenerator::Config{}, Rng(5));
    WorkingSetGenerator by_batch(WorkingSetGenerator::Config{},
                                 Rng(5));
    const std::uint64_t digest = digestByNext(by_next);
    EXPECT_EQ(digest, 0x72f5cfd6a90e2ecdull)
        << "actual 0x" << std::hex << digest;
    EXPECT_EQ(digestByBatch(by_batch), 0x72f5cfd6a90e2ecdull);
}

TEST(GoldenStreamDigest, MeasuredReuseProfileJson)
{
    auto source = okOrThrow(
        valueOrFatal(WorkloadSpec::parse("spec92:profile=wave5", 3))
            .make());
    const auto profile =
        ReuseProfile::measure(*source, kGoldenRefs, 32, 512);
    ASSERT_TRUE(profile.ok());
    StreamDigest digest;
    digest.add(profile.value().toJsonText());
    EXPECT_EQ(digest.value(), 0xe0df3d486631ed99ull)
        << "actual 0x" << std::hex << digest.value();
}

TEST(WorkloadSpecJson, IFetchAndParamsSurviveTheTrip)
{
    auto spec = valueOrFatal(
        WorkloadSpec::parse("ycsb-e:records=2000,scan-max=10", 5));
    spec.withIFetch = true;
    const auto json = spec.toJson();
    ASSERT_TRUE(json.ok());
    const auto back = WorkloadSpec::fromJson(json.value());
    ASSERT_TRUE(back.ok());
    EXPECT_TRUE(back.value().withIFetch);
    auto source = back.value().make();
    ASSERT_TRUE(source.ok());
    bool saw_ifetch = false;
    for (const auto &ref : source.value()->drain(500))
        saw_ifetch |= ref.kind == RefKind::IFetch;
    EXPECT_TRUE(saw_ifetch);
}

TEST(WorkloadSpecJson, StrictSchemaRejectsMalformedDocuments)
{
    const char *bad[] = {
        "not json at all",
        "[1,2]",
        "{\"params\":{},\"seed\":1,\"ifetch\":false}",
        "{\"method\":7,\"params\":{},\"seed\":1,\"ifetch\":false}",
        "{\"method\":\"ycsb\",\"params\":{},\"seed\":-1,"
        "\"ifetch\":false}",
        "{\"method\":\"ycsb\",\"params\":{},\"seed\":1.5,"
        "\"ifetch\":false}",
        "{\"method\":\"ycsb\",\"params\":{},\"seed\":1,"
        "\"ifetch\":\"yes\"}",
        "{\"method\":\"ycsb\",\"params\":{},\"seed\":1,"
        "\"ifetch\":false,\"extra\":1}",
        "{\"method\":\"ycsb\",\"params\":{\"theta\":null},"
        "\"seed\":1,\"ifetch\":false}",
    };
    for (const char *text : bad) {
        const auto spec = WorkloadSpec::fromJson(text);
        ASSERT_FALSE(spec.ok()) << text;
        EXPECT_EQ(spec.status().code(), ErrorCode::ParseError)
            << text;
    }
}

TEST(WorkloadSpecJson, SeedsMustFitTheirField)
{
    // Casting either seed to std::uint64_t was undefined behaviour.
    for (const char *seed : {"1e300", "18446744073709551616"}) {
        const std::string text =
            std::string("{\"method\":\"ycsb\",\"params\":{},"
                        "\"seed\":") +
            seed + "}";
        const auto spec = WorkloadSpec::fromJson(text);
        ASSERT_FALSE(spec.ok()) << text;
        EXPECT_EQ(spec.status().code(), ErrorCode::ParseError)
            << text;
        EXPECT_NE(spec.status().message().find(
                      "workload spec: seed must be an integer in "
                      "[0, 18446744073709551615]"),
                  std::string::npos)
            << spec.status().message();
    }

    // 2^53 parses exactly and survives toJson/fromJson.
    const std::uint64_t big = std::uint64_t{1} << 53;
    const auto spec = WorkloadSpec::fromJson(
        "{\"method\":\"ycsb\",\"params\":{},"
        "\"seed\":9007199254740992}");
    ASSERT_TRUE(spec.ok()) << spec.status().toString();
    EXPECT_EQ(spec.value().seed, big);
    const auto json = spec.value().toJson();
    ASSERT_TRUE(json.ok()) << json.status().toString();
    const auto back = WorkloadSpec::fromJson(json.value());
    ASSERT_TRUE(back.ok()) << back.status().toString();
    EXPECT_EQ(back.value().seed, big);
}

TEST(WorkloadSpecJson, UnknownMethodParsesButFailsAtMake)
{
    // Deliberate: a deserialized grid degrades per point, so the
    // parse itself succeeds and make() carries the NotFound.
    const auto spec = WorkloadSpec::fromJson(
        "{\"method\":\"retired-method\",\"params\":{},"
        "\"seed\":1,\"ifetch\":false}");
    ASSERT_TRUE(spec.ok());
    const auto made = spec.value().make();
    ASSERT_FALSE(made.ok());
    EXPECT_EQ(made.status().code(), ErrorCode::NotFound);
}

// ------------------------------- Scenario + Runner integration

std::vector<Cell>
hitRatioKernel(const Point &point)
{
    auto source = okOrThrow(point.workload.make());
    const auto run = runCacheSim(point.cache, *source, point.refs);
    return {Cell::num(run.hitRatio(), 6)};
}

Scenario
newMethodScenario()
{
    Scenario scenario("new_methods");
    scenario.refs = 4000;
    scenario.cache.sizeBytes = 8192;
    scenario.cache.assoc = 2;
    scenario.cache.lineBytes = 32;
    scenario.sweep("size", {4096, 8192},
                   [](Point &point, const AxisValue &v) {
                       point.cache.sizeBytes =
                           static_cast<std::uint64_t>(v.value);
                   });
    scenario.sweepWorkloadSpecs(
        {valueOrFatal(WorkloadSpec::parse("ycsb-a:records=5000", 3)),
         valueOrFatal(WorkloadSpec::parse(
             "reuse-dist:depth=64,decay=0.9", 3)),
         valueOrFatal(WorkloadSpec::parse("nasa7", 3))});
    return scenario;
}

TEST(WorkloadSpecRunner, GeometrySweepIsByteIdenticalAcrossThreads)
{
    Runner serial(RunnerOptions{1});
    Runner wide(RunnerOptions{4});
    const ResultTable a =
        serial.run(newMethodScenario(), {"hr"}, hitRatioKernel);
    const ResultTable b =
        wide.run(newMethodScenario(), {"hr"}, hitRatioKernel);
    EXPECT_EQ(a.renderCsv(), b.renderCsv());
    EXPECT_EQ(a.renderJson(), b.renderJson());
}

TEST(WorkloadSpecRunner, ConcurrentYcsbBuildsMatchSerialOnes)
{
    // Runner shards build their sources at the same time, and
    // every YCSB build consults one process-wide zeta memo.  Ten
    // keyspaces (more than the memo holds) repeated across four
    // threads, each in its own order, make builds race on both
    // hits and misses; each stream must still equal a serial
    // build's.
    std::vector<WorkloadSpec> specs;
    for (int i = 0; i < 20; ++i) {
        const int records = 20011 + 997 * (i % 10);
        const char *mix = i % 2 ? "ycsb-d" : "ycsb-a";
        specs.push_back(valueOrFatal(WorkloadSpec::parse(
            std::string(mix) + ":records=" + std::to_string(records) +
                ",theta=0." + std::to_string(80 + i % 3),
            static_cast<std::uint64_t>(i))));
    }
    constexpr std::size_t kThreads = 4;
    constexpr std::size_t kRefs = 3000;
    std::vector<std::vector<std::vector<MemoryReference>>> streams(
        kThreads,
        std::vector<std::vector<MemoryReference>>(specs.size()));
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            for (std::size_t k = 0; k < specs.size(); ++k) {
                const std::size_t i = (k + 5 * t) % specs.size();
                streams[t][i] =
                    okOrThrow(specs[i].make())->drain(kRefs);
            }
        });
    }
    for (auto &worker : workers)
        worker.join();

    for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto serial = okOrThrow(specs[i].make())->drain(kRefs);
        ASSERT_EQ(serial.size(), kRefs);
        for (std::size_t t = 0; t < kThreads; ++t) {
            EXPECT_EQ(streams[t][i], serial)
                << specs[i].shortLabel() << " on thread " << t;
        }
    }
}

TEST(WorkloadSpecRunner, BadSpecDegradesToAnErrorRow)
{
    Scenario scenario("degrades");
    scenario.refs = 1000;
    scenario.cache.sizeBytes = 4096;
    WorkloadSpec broken = WorkloadSpec::of("nosuchmethod", {}, 1);
    scenario.sweepWorkloadSpecs(
        {valueOrFatal(WorkloadSpec::parse("ycsb-c:records=2000", 1)),
         broken});
    Runner runner(RunnerOptions{2});
    const ResultTable table =
        runner.run(scenario, {"hr"}, hitRatioKernel);
    ASSERT_EQ(table.rows(), 2u);
    EXPECT_FALSE(table.at(0, 1).isError());
    EXPECT_TRUE(table.at(1, 1).isError());
}

} // namespace
} // namespace exp
} // namespace uatm
