/**
 * @file
 * Serving-layer tests: canonical point keys, the content-addressed
 * PointCache (memory + disk), the strict sweep-request parser, the
 * SweepService contracts (byte-identity across threads, engines
 * and cache states; admission control; per-point error isolation),
 * and the HTTP surface end-to-end over real sockets.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "exp/point_key.hh"
#include "exp/runner.hh"
#include "exp/scenarios.hh"
#include "serve/http.hh"
#include "serve/point_cache.hh"
#include "serve/server.hh"
#include "serve/service.hh"
#include "serve/sweep_request.hh"

namespace uatm {
namespace {

using exp::Cell;

// --------------------------------------------------- point keys

exp::Scenario
smallScenario(std::vector<double> sizes = {4096, 8192})
{
    exp::Scenario scenario("key_test");
    scenario.workload = exp::WorkloadSpec::spec92("nasa7", 3);
    scenario.refs = 2000;
    scenario.warmupRefs = 200;
    scenario.sweep("size", std::move(sizes),
                   [](exp::Point &p, const exp::AxisValue &v) {
                       p.cache.sizeBytes =
                           std::uint64_t(v.value);
                   });
    return scenario;
}

TEST(PointKey, EqualConfigurationsShareAKey)
{
    const auto a = smallScenario().expand();
    const auto b = smallScenario().expand();
    ASSERT_EQ(a.size(), 2u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        const auto ka = exp::canonicalPointKey(a[i], "cache/v1");
        const auto kb = exp::canonicalPointKey(b[i], "cache/v1");
        ASSERT_TRUE(ka.ok());
        ASSERT_TRUE(kb.ok());
        EXPECT_EQ(ka.value(), kb.value());
    }
    const auto k0 = exp::canonicalPointKey(a[0], "cache/v1");
    const auto k1 = exp::canonicalPointKey(a[1], "cache/v1");
    EXPECT_NE(k0.value(), k1.value());
}

TEST(PointKey, KernelIdParticipates)
{
    const auto points = smallScenario().expand();
    const auto v1 = exp::canonicalPointKey(points[0], "cache/v1");
    const auto v2 = exp::canonicalPointKey(points[0], "cache/v2");
    ASSERT_TRUE(v1.ok());
    ASSERT_TRUE(v2.ok());
    EXPECT_NE(v1.value(), v2.value());
}

TEST(PointKey, SpecsWithNoMethodGetNoKey)
{
    // A spec names its stream by method, params and seed; with no
    // method there is nothing to address, so no key is made.
    auto points = smallScenario().expand();
    points[0].workload = exp::WorkloadSpec::of("");
    const auto key = exp::canonicalPointKey(points[0], "cache/v1");
    ASSERT_FALSE(key.ok());
    EXPECT_EQ(key.status().code(), ErrorCode::InvalidArgument);
    EXPECT_TRUE(exp::canonicalPointKey(points[1], "cache/v1").ok());
}

TEST(PointKey, DigestIs16LowercaseHexDigits)
{
    const std::string digest = exp::pointKeyDigest("anything");
    ASSERT_EQ(digest.size(), 16u);
    for (char c : digest) {
        EXPECT_TRUE((c >= '0' && c <= '9') ||
                    (c >= 'a' && c <= 'f'))
            << digest;
    }
    EXPECT_NE(digest, exp::pointKeyDigest("anything else"));
}

TEST(PointKey, EqualKeysImplyByteIdenticalCells)
{
    // The memoization contract: points with equal keys produce
    // byte-identical cells under the kernel (and distinct keys
    // may not alias).  A duplicated axis value makes two distinct
    // grid points with the same content address.
    const auto points =
        smallScenario({4096, 8192, 4096}).expand();
    const serve::ServeKernel *kernel =
        serve::findServeKernel("cache");
    ASSERT_NE(kernel, nullptr);

    std::vector<std::string> keys;
    std::vector<std::vector<Cell>> cells;
    for (const exp::Point &point : points) {
        auto key = exp::canonicalPointKey(point, kernel->id);
        ASSERT_TRUE(key.ok());
        keys.push_back(std::move(key).value());
        auto result = kernel->eval(point);
        ASSERT_TRUE(result.ok());
        cells.push_back(std::move(result).value());
    }
    EXPECT_EQ(keys[0], keys[2]);
    EXPECT_NE(keys[0], keys[1]);
    for (std::size_t i = 0; i < points.size(); ++i) {
        for (std::size_t j = i + 1; j < points.size(); ++j) {
            const bool same_key = keys[i] == keys[j];
            bool same_cells = cells[i].size() == cells[j].size();
            for (std::size_t c = 0;
                 same_cells && c < cells[i].size(); ++c)
                same_cells =
                    cells[i][c].str() == cells[j][c].str();
            EXPECT_EQ(same_key, same_cells)
                << "points " << i << " and " << j;
        }
    }
}

TEST(PointKey, ServedKeysKeepTheirBytes)
{
    // Golden keys: a served point's key names its on-disk cache
    // file, so a parser change must leave every key byte alone.
    struct Case
    {
        const char *request;
        const char *key;
    };
    const Case cases[] = {
        // The first point of bench_served's request.
        {R"({"name": "bench_served", "kernel": "cache",
             "refs": 20000, "warmup": 2000,
             "workload": {"method": "spec92",
                          "params": {"profile": "nasa7"},
                          "seed": 9},
             "cache": {"assoc": 2, "line": 32},
             "axes": [{"axis": "cache.size",
                       "values": [4096, 8192]}],
             "threads": 1})",
         R"({"v":1,"kernel":"cache/v1",)"
         R"("cache":{"size":4096,"assoc":2,"line":32,)"
         R"("write_miss":"write-allocate","write":"write-back",)"
         R"("replacement":"LRU","replacement_seed":1},)"
         R"("memory":{"bus_width":4,"cycle_time":8,)"
         R"("pipelined":false,"pipeline_interval":2},)"
         R"("wbuf":{"depth":0,"read_bypass":true},)"
         R"("cpu":{"feature":"FS","mshrs":1,)"
         R"("suppress_flush":false,"prefetch":"none"},)"
         R"("workload":{"method":"spec92",)"
         R"("params":{"profile":"nasa7"},"seed":9,)"
         R"("ifetch":false},"refs":20000,"warmup":2000})"},
        // Every cache field off its default.
        {R"({"refs": 3000, "warmup": 300,
             "workload": {"method": "ycsb-a",
                          "params": {"records": 5000,
                                     "theta": 0.9},
                          "seed": 11},
             "cache": {"size": 16384, "assoc": 4, "line": 64,
                       "write_miss": "write-around",
                       "write": "write-through",
                       "replacement": "Random",
                       "replacement_seed": 77}})",
         R"({"v":1,"kernel":"cache/v1",)"
         R"("cache":{"size":16384,"assoc":4,"line":64,)"
         R"("write_miss":"write-around","write":"write-through",)"
         R"("replacement":"Random","replacement_seed":77},)"
         R"("memory":{"bus_width":4,"cycle_time":8,)"
         R"("pipelined":false,"pipeline_interval":2},)"
         R"("wbuf":{"depth":0,"read_bypass":true},)"
         R"("cpu":{"feature":"FS","mshrs":1,)"
         R"("suppress_flush":false,"prefetch":"none"},)"
         R"("workload":{"method":"ycsb-a",)"
         R"("params":{"records":5000,"theta":0.9},"seed":11,)"
         R"("ifetch":false},"refs":3000,"warmup":300})"},
    };
    for (const Case &c : cases) {
        auto request = serve::parseSweepRequest(c.request);
        ASSERT_TRUE(request.ok()) << request.status().toString();
        const auto points = request.value().scenario.expand();
        ASSERT_FALSE(points.empty());
        const auto key = exp::canonicalPointKey(points[0], "cache/v1");
        ASSERT_TRUE(key.ok()) << key.status().toString();
        EXPECT_EQ(key.value(), c.key);
    }
}

// -------------------------------------------------- point cache

std::string
freshDir(const char *name)
{
    const std::string dir =
        testing::TempDir() + "uatm_serve_" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

TEST(PointCache, LruEvictsLeastRecentlyUsed)
{
    serve::PointCacheOptions options;
    options.capacity = 2;
    serve::PointCache cache(options);
    cache.insert("a", {Cell::integer(1)});
    cache.insert("b", {Cell::integer(2)});
    // Touch "a" so "b" is the eviction victim.
    EXPECT_TRUE(cache.lookup("a").has_value());
    cache.insert("c", {Cell::integer(3)});

    EXPECT_EQ(cache.size(), 2u);
    EXPECT_TRUE(cache.lookup("a").has_value());
    EXPECT_FALSE(cache.lookup("b").has_value());
    EXPECT_TRUE(cache.lookup("c").has_value());
    const auto counters = cache.counters();
    EXPECT_EQ(counters.evictions, 1u);
    EXPECT_EQ(counters.inserts, 3u);
    EXPECT_EQ(counters.misses, 1u);
}

TEST(PointCache, DiskRoundTripIsExact)
{
    const std::string dir = freshDir("roundtrip");
    serve::PointCacheOptions options;
    options.dir = dir;

    // Cells whose doubles do not survive %.12g: the disk format
    // must round-trip them bit-exactly (hex-float), and the text
    // must come back verbatim (it is the wire format).
    const std::vector<Cell> cells = {
        Cell::num(1.0 / 3.0, 6),
        Cell::num(0.1234567890123456789, 12),
        Cell::integer(-42),
        Cell::text("label"),
        Cell::error(Status::invalidArgument("boom")),
    };
    {
        serve::PointCache cache(options);
        cache.insert("key1", cells);
    }
    serve::PointCache cache(options); // fresh memory, same disk
    const auto loaded = cache.lookup("key1");
    ASSERT_TRUE(loaded.has_value());
    ASSERT_EQ(loaded->size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        EXPECT_EQ((*loaded)[i].str(), cells[i].str()) << i;
        EXPECT_EQ((*loaded)[i].numeric(), cells[i].numeric())
            << i;
        EXPECT_EQ((*loaded)[i].isError(), cells[i].isError())
            << i;
        if (cells[i].numeric()) {
            // Bit-exact, not approximately equal.
            EXPECT_EQ((*loaded)[i].value(), cells[i].value())
                << i;
        }
    }
    EXPECT_EQ(cache.counters().diskHits, 1u);
    std::filesystem::remove_all(dir);
}

TEST(PointCache, ClearDropsMemoryButKeepsDisk)
{
    const std::string dir = freshDir("clear");
    serve::PointCacheOptions options;
    options.dir = dir;
    serve::PointCache cache(options);
    cache.insert("k", {Cell::integer(7)});
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    // The disk copy faults back in.
    EXPECT_TRUE(cache.lookup("k").has_value());
    EXPECT_EQ(cache.counters().diskHits, 1u);
    EXPECT_EQ(cache.size(), 1u);
    std::filesystem::remove_all(dir);
}

TEST(PointCache, CorruptDiskEntriesAreDroppedNotTrusted)
{
    const std::string dir = freshDir("corrupt");
    std::filesystem::create_directories(dir);
    const std::string key = "some key";
    const std::string path =
        dir + "/" + exp::pointKeyDigest(key) + ".json";
    const auto entry = [&](const std::string &value) {
        return "{\"v\": 1, \"key\": \"" + key +
               "\", \"cells\": [{\"text\": \"0.5\", \"value\": \"" +
               value + "\", \"numeric\": true, \"error\": false}]}";
    };
    // A cell value that is not one complete hex float used to be
    // read as 0.0 (or as its valid prefix) and served.
    struct Case
    {
        std::string json;
        std::string message;
    };
    const Case cases[] = {
        {"{not json", "byte 1: expected a string key"},
        {entry("zz"), "cells[0].value must be a hex float (got \"zz\")"},
        {entry("0x1p+0junk"),
         "cells[0].value must be a hex float (got \"0x1p+0junk\")"},
    };
    serve::PointCacheOptions options;
    options.dir = dir;
    serve::PointCache cache(options);
    std::uint64_t errors = 0;
    for (const Case &c : cases) {
        std::ofstream(path) << c.json;
        testing::internal::CaptureStderr();
        EXPECT_FALSE(cache.lookup(key).has_value()) << c.json;
        const std::string log = testing::internal::GetCapturedStderr();
        EXPECT_EQ(cache.counters().diskErrors, ++errors) << c.json;
        EXPECT_NE(log.find("parse_error: '" + path + "': " + c.message),
                  std::string::npos)
            << log;
    }

    // The same entry with a well-formed value is served.
    std::ofstream(path) << entry("0x1p-1");
    const auto cells = cache.lookup(key);
    ASSERT_TRUE(cells.has_value());
    EXPECT_EQ((*cells)[0].value(), 0.5);
    EXPECT_EQ(cache.counters().diskErrors, errors);
    std::filesystem::remove_all(dir);
}

TEST(PointCache, DigestCollisionDegradesToAMiss)
{
    // A file whose digest matches but whose stored key differs
    // must read as a miss — never as the other key's cells.
    const std::string dir = freshDir("collision");
    serve::PointCacheOptions options;
    options.dir = dir;
    {
        serve::PointCache cache(options);
        cache.insert("key A", {Cell::integer(1)});
    }
    const std::string path_a =
        dir + "/" + exp::pointKeyDigest("key A") + ".json";
    const std::string path_b =
        dir + "/" + exp::pointKeyDigest("key B") + ".json";
    std::filesystem::rename(path_a, path_b);

    serve::PointCache cache(options);
    EXPECT_FALSE(cache.lookup("key B").has_value());
    // An honest mismatch, not a corrupt file.
    EXPECT_EQ(cache.counters().diskErrors, 0u);
    std::filesystem::remove_all(dir);
}

// ------------------------------------------- request parsing

constexpr const char *kRequest = R"({
  "name": "geom",
  "kernel": "cache",
  "refs": 2000,
  "warmup": 200,
  "workload": {"method": "spec92",
               "params": {"profile": "nasa7"}, "seed": 3},
  "cache": {"assoc": 2, "line": 32},
  "axes": [{"axis": "cache.size", "values": [4096, 8192]}],
  "threads": 2
})";

TEST(SweepRequest, ParsesAFullRequest)
{
    auto request = serve::parseSweepRequest(kRequest);
    ASSERT_TRUE(request.ok()) << request.status().toString();
    EXPECT_EQ(request.value().kernel, "cache");
    EXPECT_EQ(request.value().threads, 2u);
    EXPECT_EQ(request.value().scenario.name(), "geom");
    EXPECT_EQ(request.value().scenario.refs, 2000u);
    EXPECT_EQ(request.value().scenario.pointCount(), 2u);
    EXPECT_EQ(request.value().scenario.cache.assoc, 2u);
}

TEST(SweepRequest, RejectsUnknownFieldsAndAxes)
{
    struct Case
    {
        const char *json;
        ErrorCode code;
    };
    const Case cases[] = {
        {R"({"bogus": 1})", ErrorCode::ParseError},
        {R"({"axes": [{"axis": "cache.oops",
                       "values": [1]}]})",
         ErrorCode::NotFound},
        {R"({"axes": [{"axis": "cache.size",
                       "values": [1], "extra": 2}]})",
         ErrorCode::ParseError},
        {R"({"axes": [{"axis": "cache.size"}]})",
         ErrorCode::ParseError},
        {R"({"axes": [{"axis": "cache.size",
                       "values": ["big"]}]})",
         ErrorCode::ParseError},
        {R"({"kernel": "warp-drive"})", ErrorCode::NotFound},
        {R"({"refs": 0})", ErrorCode::ParseError},
        {R"({"refs": -5})", ErrorCode::ParseError},
        {R"({"cache": {"write": "sideways"}})",
         ErrorCode::ParseError},
        {R"(not json)", ErrorCode::ParseError},
    };
    for (const Case &c : cases) {
        auto request = serve::parseSweepRequest(c.json);
        ASSERT_FALSE(request.ok()) << c.json;
        EXPECT_EQ(request.status().code(), c.code) << c.json;
    }
}

TEST(SweepRequest, IntegersOutsideTheirFieldAreParseErrors)
{
    // Each body used to parse: its number was cast to the field
    // unchecked, wrapping, truncating or undefined.
    struct Case
    {
        const char *json;
        const char *message;
    };
    const Case cases[] = {
        {R"({"cache": {"assoc": 4294967298}})",
         "sweep request: cache.assoc must be an integer in "
         "[0, 4294967295] (got 4294967298)"},
        {R"({"axes": [{"axis": "cache.size",
                       "values": [4096.5]}]})",
         "sweep request: axes[0].values[0] must be an integer in "
         "[0, 18446744073709551615] (got 4096.5)"},
        {R"({"axes": [{"axis": "cache.size",
                       "values": [-8192]}]})",
         "sweep request: axes[0].values[0] must be an integer in "
         "[0, 18446744073709551615] (got -8192)"},
        {R"({"axes": [{"axis": "cache.assoc",
                       "values": [4294967298]}]})",
         "sweep request: axes[0].values[0] must be an integer in "
         "[0, 4294967295] (got 4294967298)"},
        {R"({"refs": 1e300})",
         "sweep request: refs must be an integer in "
         "[1, 18446744073709551615] (got 1e+300)"},
    };
    for (const Case &c : cases) {
        auto request = serve::parseSweepRequest(c.json);
        ASSERT_FALSE(request.ok()) << c.json;
        EXPECT_EQ(request.status().code(), ErrorCode::ParseError)
            << c.json;
        EXPECT_NE(request.status().message().find(c.message),
                  std::string::npos)
            << request.status().message();
    }

    // Each field's own maximum still parses.
    auto widest = serve::parseSweepRequest(R"({
      "cache": {"assoc": 4294967295},
      "axes": [{"axis": "cache.assoc", "values": [4294967295]}]
    })");
    ASSERT_TRUE(widest.ok()) << widest.status().toString();
    EXPECT_EQ(widest.value().scenario.cache.assoc, 4294967295u);
}

TEST(SweepRequest, ErrorsNameTheJsonPath)
{
    struct Case
    {
        const char *json;
        const char *message;
    };
    const Case cases[] = {
        {R"([])", "sweep request must be an object (got an array)"},
        {R"({"name": ""})", "sweep request: name must not be empty"},
        {R"({"threads": "4"})",
         "sweep request: threads must be an integer in "
         "[0, 4294967295] (got \"4\")"},
        {R"({"cache": {"write": "sideways"}})",
         "sweep request: cache.write must be one of write-back, "
         "write-through (got \"sideways\")"},
        {R"({"cache": {"ways": 2}})",
         "sweep request: unknown field \"cache.ways\""},
        {R"({"workload": {"method": "spec92", "seed": -1}})",
         "sweep request: workload.seed must be an integer in "
         "[0, 18446744073709551615] (got -1)"},
        {R"({"workload": {"method": "ycsb-a",
                          "params": {"theta": null}}})",
         "sweep request: workload.params.theta must be a string, "
         "number or bool (got null)"},
        {R"({"axes": [{"axis": "cache.size", "values": [4096]},
                      {"axis": "cache.line"}]})",
         "sweep request: axes[1].values must be a non-empty array"},
        {R"({"axes": [{"axis": "workload",
                       "specs": [{"seed": 1}]}]})",
         "sweep request: axes[0].specs[0].method is required"},
        {R"({"axes": [{"axis": "workload", "values": [1],
                       "specs": [{"method": "spec92"}]}]})",
         "sweep request: axes[0].values is not taken by this axis"},
    };
    for (const Case &c : cases) {
        auto request = serve::parseSweepRequest(c.json);
        ASSERT_FALSE(request.ok()) << c.json;
        EXPECT_EQ(request.status().code(), ErrorCode::ParseError)
            << c.json;
        EXPECT_EQ(request.status().message(), c.message) << c.json;
    }
}

TEST(SweepRequest, NumbersThatOverflowADoubleAreParseErrors)
{
    // JSON has no infinity, so the overflow is a positioned parse
    // error; no range check sees it and renders it as "null".
    auto request = serve::parseSweepRequest(R"({"refs": 1e999})");
    ASSERT_FALSE(request.ok());
    EXPECT_EQ(request.status().code(), ErrorCode::ParseError);
    const std::string &message = request.status().message();
    EXPECT_NE(message.find("number overflows a double"),
              std::string::npos)
        << message;
    EXPECT_EQ(message.find("null"), std::string::npos) << message;
}

TEST(SweepRequest, WarmupLongerThanRefsIsAParseError)
{
    // Such a body used to reach runCacheSim's assertion and abort
    // the daemon.  The default refs (100000) count too.
    for (const char *json :
         {R"({"refs": 1000, "warmup": 5000})",
          R"({"warmup": 5000, "refs": 1000})",
          R"({"warmup": 100001})"}) {
        auto request = serve::parseSweepRequest(json);
        ASSERT_FALSE(request.ok()) << json;
        EXPECT_EQ(request.status().code(), ErrorCode::ParseError)
            << json;
        EXPECT_NE(request.status().message().find("\"warmup\""),
                  std::string::npos)
            << request.status().message();
    }
    auto equal = serve::parseSweepRequest(
        R"({"refs": 1000, "warmup": 1000})");
    ASSERT_TRUE(equal.ok()) << equal.status().toString();
    EXPECT_EQ(equal.value().scenario.warmupRefs, 1000u);
}

TEST(SweepRequest, LargeWorkloadSeedsSurviveParsing)
{
    // The parser reads the workload subtree in place; a 2^40 seed
    // must come back exactly, as WorkloadSpec::fromJson reads it
    // from the same text.
    const std::string workload =
        R"({"method": "spec92", "params": {"profile": "nasa7"},
            "seed": 1099511627776})";
    auto request =
        serve::parseSweepRequest(R"({"workload": )" + workload + "}");
    ASSERT_TRUE(request.ok()) << request.status().toString();
    auto direct = exp::WorkloadSpec::fromJson(workload);
    ASSERT_TRUE(direct.ok()) << direct.status().toString();
    EXPECT_EQ(direct.value().seed, 1099511627776u);
    EXPECT_EQ(request.value().scenario.workload.seed,
              direct.value().seed);
}

TEST(SweepRequest, WorkloadParamsHoldTheNumberTheKeyShows)
{
    // A point key renders a number param to 12 significant digits,
    // so the parsed param must hold that rendered value: two
    // requests whose thetas differ past the 12th digit share a key
    // and must then build the same stream.
    auto request = serve::parseSweepRequest(R"({"workload":
        {"method": "ycsb-a", "params": {"theta": 0.98765432109876},
         "seed": 1}})");
    ASSERT_TRUE(request.ok()) << request.status().toString();
    const exp::ParamValue *theta =
        request.value().scenario.workload.params.find("theta");
    ASSERT_NE(theta, nullptr);
    EXPECT_EQ(theta->asNumber(), 0.987654321099);

    // JSON has no infinity to render.
    auto huge = serve::parseSweepRequest(R"({"workload":
        {"method": "ycsb-a", "params": {"theta": 1e999}}})");
    ASSERT_FALSE(huge.ok());
    EXPECT_EQ(huge.status().code(), ErrorCode::ParseError);
}

TEST(SweepRequest, UnknownAxisErrorListsTheKnownOnes)
{
    auto request = serve::parseSweepRequest(
        R"({"axes": [{"axis": "nope", "values": [1]}]})");
    ASSERT_FALSE(request.ok());
    EXPECT_NE(request.status().message().find("cache.size"),
              std::string::npos);
    EXPECT_NE(request.status().message().find("workload"),
              std::string::npos);
    EXPECT_EQ(request.status().message().find("memory.bus_width"),
              std::string::npos);
}

TEST(SweepRequest, AxesAndKernelsAreWhatTheKernelReads)
{
    // /workloads and the unknown-axis message list these.
    EXPECT_EQ(serve::serveAxisNames(),
              (std::vector<std::string>{"cache.assoc", "cache.line",
                                        "cache.size", "workload"}));
    EXPECT_EQ(serve::serveKernelNames(),
              std::vector<std::string>{"cache"});
}

TEST(SweepRequest, MachineConfigObjectsAreParseErrors)
{
    // The cache kernel reads none of them, so a request that sets
    // one would only split the point key.
    for (const char *field : {"memory", "wbuf", "cpu"}) {
        const std::string json =
            std::string(R"({")") + field + R"(": {}})";
        auto request = serve::parseSweepRequest(json);
        ASSERT_FALSE(request.ok()) << json;
        EXPECT_EQ(request.status().code(), ErrorCode::ParseError)
            << json;
        EXPECT_NE(request.status().message().find(
                      std::string("\"") + field + "\""),
                  std::string::npos)
            << request.status().message();
    }
}

TEST(SweepRequest, MachineConfigAxesAreNotFound)
{
    for (const char *axis :
         {"memory.bus_width", "memory.cycle_time",
          "memory.pipeline_interval", "wbuf.depth", "cpu.mshrs"}) {
        const std::string json =
            std::string(R"({"axes": [{"axis": ")") + axis +
            R"(", "values": [4, 8]}]})";
        auto request = serve::parseSweepRequest(json);
        ASSERT_FALSE(request.ok()) << json;
        EXPECT_EQ(request.status().code(), ErrorCode::NotFound)
            << json;
        EXPECT_NE(request.status().message().find(axis),
                  std::string::npos)
            << request.status().message();
    }
}

TEST(SweepRequest, WorkloadAxisSweepsWholeSpecs)
{
    auto request = serve::parseSweepRequest(R"({
      "refs": 1000,
      "axes": [{"axis": "workload",
                "specs": [
                  {"method": "spec92",
                   "params": {"profile": "nasa7"}, "seed": 1},
                  {"method": "spec92",
                   "params": {"profile": "doduc"}, "seed": 1}
                ]}]
    })");
    ASSERT_TRUE(request.ok()) << request.status().toString();
    EXPECT_EQ(request.value().scenario.pointCount(), 2u);
}

// ------------------------------------------------ sweep service

TEST(SweepService, WarmRunsAreByteIdenticalAndAllHits)
{
    serve::ServiceOptions options;
    options.threads = 1;
    serve::SweepService service(options);
    const auto request = serve::parseSweepRequest(kRequest);
    ASSERT_TRUE(request.ok());

    auto cold = service.runSweep(request.value());
    ASSERT_TRUE(cold.ok()) << cold.status().toString();
    EXPECT_EQ(cold.value().points, 2u);
    EXPECT_EQ(cold.value().computed, 2u);
    EXPECT_EQ(cold.value().cacheHits, 0u);

    auto warm = service.runSweep(request.value());
    ASSERT_TRUE(warm.ok());
    EXPECT_EQ(warm.value().cacheHits, 2u);
    EXPECT_EQ(warm.value().computed, 0u);
    EXPECT_EQ(warm.value().table.renderNdjson(),
              cold.value().table.renderNdjson());
}

TEST(SweepService, ByteIdenticalAcrossThreadCounts)
{
    const auto request = serve::parseSweepRequest(kRequest);
    ASSERT_TRUE(request.ok());
    std::string serial;
    for (unsigned threads : {1u, 2u}) {
        serve::ServiceOptions options;
        options.threads = threads;
        serve::SweepService service(options);
        auto outcome = service.runSweep(request.value());
        ASSERT_TRUE(outcome.ok());
        const std::string rows =
            outcome.value().table.renderNdjson();
        if (serial.empty())
            serial = rows;
        else
            EXPECT_EQ(rows, serial) << threads << " threads";
    }
    EXPECT_FALSE(serial.empty());
}

TEST(SweepService, MatchesTheOfflineRunner)
{
    // The daemon must add transport, not meaning: the same
    // request through a bare Runner on the same kernel renders
    // the same NDJSON.
    const auto request = serve::parseSweepRequest(kRequest);
    ASSERT_TRUE(request.ok());
    const serve::ServeKernel *kernel =
        serve::findServeKernel("cache");
    ASSERT_NE(kernel, nullptr);
    exp::Runner runner(exp::RunnerOptions{1});
    const exp::ResultTable offline =
        runner.run(request.value().scenario, kernel->columns,
                   kernel->eval);

    serve::SweepService service(serve::ServiceOptions{});
    auto served = service.runSweep(request.value());
    ASSERT_TRUE(served.ok());
    EXPECT_EQ(served.value().table.renderNdjson(),
              offline.renderNdjson());
}

TEST(SweepService, MatchesTheStackSimEngine)
{
    // Cross-engine property: the serve kernel prices points with
    // per-point simulation; the single-pass stack engine over the
    // same geometry sweep must produce the same ratio cells.
    exp::GeometrySweep spec;
    spec.base.assoc = 1; // stack engine wants LRU direct/assoc
    spec.base.lineBytes = 32;
    spec.workload = exp::WorkloadSpec::spec92("nasa7", 3);
    spec.values = {4096, 8192, 16384};
    spec.refs = 2000;
    spec.warmupRefs = 200;
    spec.engine = exp::GeometrySweep::Engine::Auto;
    exp::Runner runner(exp::RunnerOptions{1});
    const std::uint64_t fast_before = sweepDispatchCounters().fastPath;
    const exp::ResultTable stack =
        exp::runGeometrySweep(spec, runner);
    EXPECT_EQ(sweepDispatchCounters().fastPath, fast_before + 1);

    auto request = serve::parseSweepRequest(R"({
      "refs": 2000, "warmup": 200,
      "workload": {"method": "spec92",
                   "params": {"profile": "nasa7"}, "seed": 3},
      "cache": {"assoc": 1, "line": 32},
      "axes": [{"axis": "cache.size",
                "values": [4096, 8192, 16384]}]
    })");
    ASSERT_TRUE(request.ok()) << request.status().toString();
    serve::SweepService service(serve::ServiceOptions{});
    auto served = service.runSweep(request.value());
    ASSERT_TRUE(served.ok());

    const exp::ResultTable &table = served.value().table;
    ASSERT_EQ(table.rows(), stack.rows());
    // Columns: axis label, then hit/miss/flush in both tables.
    for (std::size_t row = 0; row < table.rows(); ++row) {
        for (std::size_t col = 1; col < 4; ++col) {
            EXPECT_EQ(table.at(row, col).str(),
                      stack.at(row, col).str())
                << "row " << row << " col " << col;
        }
    }
}

TEST(SweepService, WarmSupersetRecomputesOnlyNewPoints)
{
    serve::ServiceOptions options;
    options.threads = 1;
    serve::SweepService service(options);
    const auto small = serve::parseSweepRequest(kRequest);
    ASSERT_TRUE(small.ok());
    ASSERT_TRUE(service.runSweep(small.value()).ok());

    auto big = serve::parseSweepRequest(R"({
      "name": "geom",
      "kernel": "cache",
      "refs": 2000,
      "warmup": 200,
      "workload": {"method": "spec92",
                   "params": {"profile": "nasa7"}, "seed": 3},
      "cache": {"assoc": 2, "line": 32},
      "axes": [{"axis": "cache.size",
                "values": [4096, 8192, 16384]}]
    })");
    ASSERT_TRUE(big.ok());
    auto outcome = service.runSweep(big.value());
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome.value().points, 3u);
    EXPECT_EQ(outcome.value().cacheHits, 2u);
    EXPECT_EQ(outcome.value().computed, 1u);
}

TEST(SweepService, SpecWithNoMethodIsAnErrorRowUncached)
{
    // A point the cache cannot address is refused with a typed
    // error: one error row, nothing cached, the other point priced.
    const auto request = serve::parseSweepRequest(R"({
      "refs": 1000,
      "axes": [{"axis": "workload", "specs": [
        {"method": "spec92", "params": {"profile": "nasa7"}},
        {"method": ""}]}]
    })");
    ASSERT_TRUE(request.ok()) << request.status().toString();

    serve::ServiceOptions options;
    options.threads = 1;
    serve::SweepService service(options);
    auto outcome = service.runSweep(request.value());
    ASSERT_TRUE(outcome.ok()) << outcome.status().toString();
    EXPECT_EQ(outcome.value().points, 2u);
    EXPECT_EQ(outcome.value().failed, 1u);
    EXPECT_EQ(outcome.value().computed, 1u);

    const exp::ResultTable &table = outcome.value().table;
    EXPECT_FALSE(table.at(0, 1).isError());
    EXPECT_TRUE(table.at(1, 1).isError());
    EXPECT_EQ(table.at(1, 1).str(), "!invalid_argument");
    EXPECT_EQ(service.cache().size(), 1u);

    // The offline runner, which makes no keys, renders the same
    // rows: make() refuses the spec with the same code.
    const serve::ServeKernel *kernel =
        serve::findServeKernel("cache");
    ASSERT_NE(kernel, nullptr);
    exp::Runner runner(exp::RunnerOptions{1});
    const exp::ResultTable offline =
        runner.run(request.value().scenario, kernel->columns,
                   kernel->eval);
    EXPECT_EQ(table.renderNdjson(), offline.renderNdjson());
}

/** ycsb-a's 8-byte accesses over a 4-byte and a 32-byte line. */
constexpr const char *kLineNarrowerThanAccess = R"({
  "refs": 2000,
  "workload": {"method": "ycsb-a", "params": {"records": 5000},
               "seed": 3},
  "axes": [{"axis": "cache.line", "values": [4, 32]}]
})";

TEST(SweepService, AccessWiderThanTheLineIsAnErrorRow)
{
    // This body used to abort the daemon on the simulator's
    // access-size assertion.
    serve::ServiceOptions options;
    options.threads = 1;
    serve::SweepService service(options);
    const auto request =
        serve::parseSweepRequest(kLineNarrowerThanAccess);
    ASSERT_TRUE(request.ok()) << request.status().toString();
    auto outcome = service.runSweep(request.value());
    ASSERT_TRUE(outcome.ok()) << outcome.status().toString();
    EXPECT_EQ(outcome.value().points, 2u);
    EXPECT_EQ(outcome.value().failed, 1u);
    EXPECT_EQ(outcome.value().computed, 1u);

    const exp::ResultTable &table = outcome.value().table;
    EXPECT_EQ(table.at(0, 1).str(), "!invalid_argument");
    EXPECT_FALSE(table.at(1, 1).isError());
    // The failure is not cached; the priced row is.
    EXPECT_EQ(service.cache().size(), 1u);
}

TEST(SweepService, ServePointCountsFailedPoints)
{
    // serve.point takes the runner's per-point timings, so the
    // failed point is counted with the priced one.
    serve::ServiceOptions options;
    options.threads = 2;
    serve::SweepService service(options);
    const auto request =
        serve::parseSweepRequest(kLineNarrowerThanAccess);
    ASSERT_TRUE(request.ok()) << request.status().toString();
    auto outcome = service.runSweep(request.value());
    ASSERT_TRUE(outcome.ok()) << outcome.status().toString();
    ASSERT_EQ(outcome.value().failed, 1u);
    const obs::StatEntry *point =
        service.stats().find("serve.point");
    ASSERT_NE(point, nullptr);
    EXPECT_EQ(point->histogram.count(),
              request.value().scenario.pointCount());
}

TEST(SweepService, OversizedRequestsAreOutOfRange)
{
    serve::ServiceOptions options;
    options.threads = 1;
    options.maxPointsPerRequest = 1;
    serve::SweepService service(options);
    const auto request = serve::parseSweepRequest(kRequest);
    ASSERT_TRUE(request.ok());
    auto outcome = service.runSweep(request.value());
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.status().code(), ErrorCode::OutOfRange);
}

TEST(SweepService, FullQueueIsUnavailable)
{
    serve::ServiceOptions options;
    options.threads = 1;
    options.maxQueueDepth = 0; // reject everything
    serve::SweepService service(options);
    const auto request = serve::parseSweepRequest(kRequest);
    ASSERT_TRUE(request.ok());
    auto outcome = service.runSweep(request.value());
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.status().code(), ErrorCode::Unavailable);
}

TEST(SweepService, UnknownKernelIsNotFound)
{
    serve::SweepRequest request;
    request.kernel = "warp-drive";
    serve::SweepService service(serve::ServiceOptions{});
    auto outcome = service.runSweep(request);
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.status().code(), ErrorCode::NotFound);
}

// ------------------------------------------------- HTTP surface

class ServerTest : public testing::Test
{
  protected:
    void
    startServer(serve::ServerOptions options = {})
    {
        options.http.port = 0;
        if (options.service.threads == 0)
            options.service.threads = 1;
        server_ =
            std::make_unique<serve::Server>(std::move(options));
        ASSERT_TRUE(server_->start().ok());
    }

    serve::HttpClientResponse
    fetch(const std::string &method, const std::string &target,
          const std::string &body = "")
    {
        auto response = serve::httpFetch(
            "127.0.0.1", server_->port(), method, target, body);
        EXPECT_TRUE(response.ok())
            << response.status().toString();
        return response.ok() ? response.value()
                             : serve::HttpClientResponse{};
    }

    std::unique_ptr<serve::Server> server_;
};

TEST_F(ServerTest, HealthzAndWorkloads)
{
    startServer();
    const auto health = fetch("GET", "/healthz");
    EXPECT_EQ(health.status, 200);
    EXPECT_EQ(health.body, "ok\n");

    const auto workloads = fetch("GET", "/workloads");
    EXPECT_EQ(workloads.status, 200);
    EXPECT_NE(workloads.body.find("\"spec92\""),
              std::string::npos);
    EXPECT_NE(workloads.body.find("\"cache\""),
              std::string::npos);
    EXPECT_NE(workloads.body.find("\"cache.size\""),
              std::string::npos);
}

TEST_F(ServerTest, SweepTwiceIsByteIdenticalWithCacheHeaders)
{
    startServer();
    const auto first = fetch("POST", "/sweep", kRequest);
    ASSERT_EQ(first.status, 200) << first.body;
    const auto second = fetch("POST", "/sweep", kRequest);
    ASSERT_EQ(second.status, 200);

    EXPECT_EQ(first.body, second.body);
    EXPECT_FALSE(first.body.empty());

    ASSERT_NE(first.header("x-uatm-points"), nullptr);
    EXPECT_EQ(*first.header("x-uatm-points"), "2");
    EXPECT_EQ(*first.header("x-uatm-points-computed"), "2");
    EXPECT_EQ(*first.header("x-uatm-cache-hits"), "0");
    EXPECT_EQ(*second.header("x-uatm-cache-hits"), "2");
    EXPECT_EQ(*second.header("x-uatm-points-computed"), "0");
    EXPECT_EQ(*second.header("x-uatm-points-failed"), "0");
}

TEST_F(ServerTest, TypedErrorsMapToHttpStatuses)
{
    serve::ServerOptions options;
    options.service.maxPointsPerRequest = 1;
    startServer(options);

    // Malformed JSON -> 400 with a typed error body.
    const auto bad = fetch("POST", "/sweep", "{nope");
    EXPECT_EQ(bad.status, 400);
    EXPECT_NE(bad.body.find("\"parse_error\""),
              std::string::npos);

    // Unknown axis -> 400 (NotFound inside a known endpoint).
    const auto axis = fetch(
        "POST", "/sweep",
        R"({"axes": [{"axis": "nope", "values": [1]}]})");
    EXPECT_EQ(axis.status, 400);
    EXPECT_NE(axis.body.find("\"not_found\""),
              std::string::npos);

    // Too many points -> 413.
    const auto big = fetch("POST", "/sweep", kRequest);
    EXPECT_EQ(big.status, 413);
    EXPECT_NE(big.body.find("\"out_of_range\""),
              std::string::npos);

    // Wrong method and unknown route.
    EXPECT_EQ(fetch("GET", "/sweep").status, 405);
    EXPECT_EQ(fetch("GET", "/nope").status, 404);
}

TEST_F(ServerTest, WarmupLongerThanRefsAnswers400AndKeepsServing)
{
    startServer();
    const auto bad = fetch("POST", "/sweep",
                           R"({"refs": 1000, "warmup": 5000})");
    EXPECT_EQ(bad.status, 400);
    EXPECT_NE(bad.body.find("\"parse_error\""), std::string::npos);
    EXPECT_NE(bad.body.find("warmup"), std::string::npos);

    const auto health = fetch("GET", "/healthz");
    EXPECT_EQ(health.status, 200);
    EXPECT_EQ(health.body, "ok\n");
}

TEST_F(ServerTest, AccessWiderThanTheLineAnswers200AndKeepsServing)
{
    startServer();
    const auto sweep =
        fetch("POST", "/sweep", kLineNarrowerThanAccess);
    EXPECT_EQ(sweep.status, 200) << sweep.body;
    EXPECT_NE(sweep.body.find("!invalid_argument"),
              std::string::npos)
        << sweep.body;
    ASSERT_NE(sweep.header("x-uatm-points-failed"), nullptr);
    EXPECT_EQ(*sweep.header("x-uatm-points-failed"), "1");

    const auto health = fetch("GET", "/healthz");
    EXPECT_EQ(health.status, 200);
    EXPECT_EQ(health.body, "ok\n");
}

TEST_F(ServerTest, FullQueueAnswers429OverHttp)
{
    serve::ServerOptions options;
    options.service.maxQueueDepth = 0;
    startServer(options);
    const auto response = fetch("POST", "/sweep", kRequest);
    EXPECT_EQ(response.status, 429);
    EXPECT_NE(response.body.find("\"unavailable\""),
              std::string::npos);
}

TEST_F(ServerTest, MetricsScrapeIsConformantAndCountsHits)
{
    startServer();
    ASSERT_EQ(fetch("POST", "/sweep", kRequest).status, 200);
    ASSERT_EQ(fetch("POST", "/sweep", kRequest).status, 200);

    for (int scrape = 0; scrape < 2; ++scrape) {
        const auto metrics = fetch("GET", "/metrics");
        ASSERT_EQ(metrics.status, 200);
        ASSERT_NE(metrics.header("content-type"), nullptr);
        EXPECT_NE(metrics.header("content-type")
                      ->find("version=0.0.4"),
                  std::string::npos);

        // Conformance: every line is HELP, TYPE, or a sample
        // whose value parses; no raw nan/inf casings.
        std::istringstream in(metrics.body);
        std::string line;
        bool saw_histogram = false;
        double hits = -1.0;
        while (std::getline(in, line)) {
            ASSERT_FALSE(line.empty());
            if (line.rfind("# HELP ", 0) == 0)
                continue;
            if (line.rfind("# TYPE ", 0) == 0) {
                if (line.find(" histogram") !=
                    std::string::npos)
                    saw_histogram = true;
                continue;
            }
            const auto space = line.rfind(' ');
            ASSERT_NE(space, std::string::npos) << line;
            const std::string name = line.substr(0, space);
            const std::string value = line.substr(space + 1);
            EXPECT_EQ(name.rfind("uatm_", 0), 0u) << line;
            if (value != "NaN" && value != "+Inf" &&
                value != "-Inf") {
                char *end = nullptr;
                std::strtod(value.c_str(), &end);
                EXPECT_EQ(*end, '\0') << line;
            }
            EXPECT_EQ(value.find("nan"), std::string::npos)
                << line;
            EXPECT_EQ(value.find("inf"), std::string::npos)
                << line;
            if (name == "uatm_serve_cache_hits")
                hits = std::strtod(value.c_str(), nullptr);
        }
        EXPECT_TRUE(saw_histogram);
        // The second request was served from the cache.
        EXPECT_GE(hits, 2.0);
    }
}

TEST_F(ServerTest, DaemonMatchesOfflineNdjsonByteForByte)
{
    startServer();
    const auto served = fetch("POST", "/sweep", kRequest);
    ASSERT_EQ(served.status, 200);

    const auto request = serve::parseSweepRequest(kRequest);
    ASSERT_TRUE(request.ok());
    const serve::ServeKernel *kernel =
        serve::findServeKernel("cache");
    exp::Runner runner(exp::RunnerOptions{1});
    const exp::ResultTable offline =
        runner.run(request.value().scenario, kernel->columns,
                   kernel->eval);
    EXPECT_EQ(served.body, offline.renderNdjson());
}

} // namespace
} // namespace uatm
