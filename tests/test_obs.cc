/**
 * @file
 * Unit tests for the observability layer: JSON writer and parser,
 * stat registry (incl. Prometheus exposition), event tracer
 * (incl. ring wraparound, counter tracks, and the Chrome export),
 * run manifests, wall-clock profiling, the benchmark harness +
 * perf_diff comparator, and the TimingStats drift guard that
 * keeps registerStats() and the struct itself in sync.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "cpu/timing_engine.hh"
#include "obs/bench.hh"
#include "obs/flags.hh"
#include "obs/json.hh"
#include "obs/manifest.hh"
#include "obs/profile.hh"
#include "obs/registry.hh"
#include "obs/trace_event.hh"
#include "trace/generators.hh"

namespace uatm {
namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

// ------------------------------------------------------------ JsonWriter

TEST(JsonWriter, NestedDocument)
{
    obs::JsonWriter w;
    w.beginObject();
    w.keyValue("n", 3);
    w.key("list").beginArray().value(1).value(2.5).endArray();
    w.key("child").beginObject().keyValue("s", "x").endObject();
    w.endObject();
    EXPECT_EQ(w.str(),
              "{\"n\":3,\"list\":[1,2.5],\"child\":{\"s\":\"x\"}}");
}

TEST(JsonWriter, EscapesControlAndQuotes)
{
    // escape() returns the fully quoted string literal.
    EXPECT_EQ(obs::JsonWriter::escape("a\"b\\c\n"),
              "\"a\\\"b\\\\c\\n\"");
    EXPECT_EQ(obs::JsonWriter::escape(std::string("\x01", 1)),
              "\"\\u0001\"");
}

TEST(JsonWriter, NonFiniteNumbersBecomeNull)
{
    obs::JsonWriter w;
    w.beginObject();
    w.keyValue("bad", std::numeric_limits<double>::infinity());
    w.endObject();
    EXPECT_EQ(w.str(), "{\"bad\":null}");
}

TEST(JsonWriter, LargeExactIntegersRenderInFull)
{
    using obs::JsonWriter;
    // %.12g alone rounds a 2^40 seed to 1099511627780.
    EXPECT_EQ(JsonWriter::formatNumber(1099511627776.0),
              "1099511627776");
    EXPECT_EQ(JsonWriter::formatNumber(-1099511627776.0),
              "-1099511627776");
    EXPECT_EQ(JsonWriter::formatNumber(1e12), "1000000000000");
    EXPECT_EQ(JsonWriter::formatNumber(9007199254740991.0),
              "9007199254740991");
    // Every other value keeps its %.12g rendering.
    EXPECT_EQ(JsonWriter::formatNumber(999999999999.0),
              "999999999999");
    EXPECT_EQ(JsonWriter::formatNumber(9007199254740992.0),
              "9.00719925474e+15");
    EXPECT_EQ(JsonWriter::formatNumber(1099511627776.5),
              "1.09951162778e+12");
    EXPECT_EQ(JsonWriter::formatNumber(0.1), "0.1");
    EXPECT_EQ(JsonWriter::formatNumber(1e300), "1e+300");
}

TEST(JsonWriter, BoolsRenderAsLiterals)
{
    obs::JsonWriter w;
    w.beginArray().value(true).value(false).endArray();
    EXPECT_EQ(w.str(), "[true,false]");
}

// ---------------------------------------------------------- StatRegistry

TEST(StatRegistry, ScalarRegisterAndLookup)
{
    obs::StatRegistry reg;
    reg.addScalar("sim.cycles", 42.0, "total cycles", "cycles");
    ASSERT_TRUE(reg.contains("sim.cycles"));
    EXPECT_DOUBLE_EQ(reg.value("sim.cycles"), 42.0);
    const obs::StatEntry *entry = reg.find("sim.cycles");
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->unit, "cycles");
    EXPECT_EQ(entry->kind, obs::StatKind::Scalar);
    EXPECT_EQ(reg.find("absent"), nullptr);
    EXPECT_FALSE(reg.contains("absent"));
}

TEST(StatRegistry, FormulaEvaluatesAtDumpTime)
{
    obs::StatRegistry reg;
    double source = 1.0;
    reg.addFormula("derived.x", [&source] { return source * 2; },
                   "doubled");
    EXPECT_DOUBLE_EQ(reg.value("derived.x"), 2.0);
    source = 5.0; // formulas are lazy, not snapshots
    EXPECT_DOUBLE_EQ(reg.value("derived.x"), 10.0);
}

TEST(StatRegistry, JsonDumpIsVersionedAndComplete)
{
    obs::StatRegistry reg;
    reg.addScalar("a.one", 1.5, "first", "cycles");
    reg.addFormula("a.two", [] { return 7.0; }, "second");
    const std::string json = reg.toJson();
    EXPECT_NE(json.find("\"schema_version\":"),
              std::string::npos);
    EXPECT_NE(json.find("\"a.one\""), std::string::npos);
    EXPECT_NE(json.find("\"a.two\""), std::string::npos);
    EXPECT_NE(json.find("\"kind\":\"formula\""),
              std::string::npos);
    EXPECT_NE(json.find("1.5"), std::string::npos);
    EXPECT_NE(json.find("7"), std::string::npos);
}

TEST(StatRegistry, FormatTextMentionsUnitsAndDescriptions)
{
    obs::StatRegistry reg;
    reg.addScalar("sim.cycles", 9.0, "total cycles", "cycles");
    const std::string text = reg.formatText();
    EXPECT_NE(text.find("sim.cycles"), std::string::npos);
    EXPECT_NE(text.find("total cycles"), std::string::npos);
}

TEST(StatGroup, PrefixesNestAndQualify)
{
    obs::StatRegistry reg;
    obs::StatGroup root(reg, "engine");
    root.group("sim").addScalar("fills", 3.0, "fills");
    obs::StatGroup nested = root.group("a").group("b");
    nested.addScalar("c", 1.0, "leaf");
    EXPECT_TRUE(reg.contains("engine.sim.fills"));
    EXPECT_TRUE(reg.contains("engine.a.b.c"));
    // Empty prefix registers bare names.
    obs::StatGroup bare(reg, "");
    bare.addScalar("top", 2.0, "bare");
    EXPECT_TRUE(reg.contains("top"));
}

// ----------------------------------------------------------- EventTracer

TEST(EventTracer, DisabledRecordsNothing)
{
    obs::EventTracer tracer(8);
    tracer.record("x", "cat", 0, 1);
    EXPECT_EQ(tracer.size(), 0u);
    EXPECT_EQ(tracer.recorded(), 0u);
    EXPECT_FALSE(tracer.enabled());
}

TEST(EventTracer, RecordsWhenEnabled)
{
    obs::EventTracer tracer(8);
    tracer.setEnabled(true);
    tracer.record("fill", "fill", 10, 64, 0x1000);
    tracer.record("stall", "stall", 74, 3);
    ASSERT_EQ(tracer.size(), 2u);
    const auto events = tracer.events();
    EXPECT_STREQ(events[0].name, "fill");
    EXPECT_EQ(events[0].start, 10u);
    EXPECT_EQ(events[0].duration, 64u);
    EXPECT_EQ(events[0].arg, 0x1000u);
    EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(EventTracer, RingWrapsOldestFirst)
{
    obs::EventTracer tracer(4);
    tracer.setEnabled(true);
    static const char *const names[] = {"e0", "e1", "e2",
                                        "e3", "e4", "e5"};
    for (std::uint64_t i = 0; i < 6; ++i)
        tracer.record(names[i], "cat", i, 1);
    EXPECT_EQ(tracer.size(), 4u);
    EXPECT_EQ(tracer.recorded(), 6u);
    EXPECT_EQ(tracer.dropped(), 2u);
    const auto events = tracer.events();
    ASSERT_EQ(events.size(), 4u);
    // e0 and e1 were overwritten; oldest survivor comes first.
    EXPECT_STREQ(events[0].name, "e2");
    EXPECT_STREQ(events[3].name, "e5");
    EXPECT_EQ(events[0].start, 2u);
}

TEST(EventTracer, ClearResetsCounters)
{
    obs::EventTracer tracer(2);
    tracer.setEnabled(true);
    for (int i = 0; i < 5; ++i)
        tracer.record("e", "cat", i, 1);
    tracer.clear();
    EXPECT_EQ(tracer.size(), 0u);
    EXPECT_EQ(tracer.recorded(), 0u);
    EXPECT_EQ(tracer.dropped(), 0u);
    EXPECT_TRUE(tracer.enabled()); // clear keeps the arm state
}

TEST(EventTracer, SetCapacityResizesRing)
{
    obs::EventTracer tracer(2);
    EXPECT_EQ(tracer.capacity(), 2u);
    tracer.setCapacity(16);
    EXPECT_EQ(tracer.capacity(), 16u);
    EXPECT_EQ(tracer.size(), 0u);
}

TEST(EventTracer, MalformedCapacityVariableKeepsTheDefault)
{
    // The ring capacity UATM_TRACE_EVENTS asks for is read by the
    // flag rule: "1x" once armed a one-slot ring that dropped all
    // but the last event.
    const std::size_t fallback = obs::EventTracer::kDefaultCapacity;
    ::setenv("UATM_TRACE_EVENTS", "1x", 1);
    testing::internal::CaptureStderr();
    const std::size_t refused =
        obs::readEnvCount("UATM_TRACE_EVENTS", fallback);
    const std::string log = testing::internal::GetCapturedStderr();
    ::setenv("UATM_TRACE_EVENTS", "64", 1);
    const std::size_t taken =
        obs::readEnvCount("UATM_TRACE_EVENTS", fallback);
    ::unsetenv("UATM_TRACE_EVENTS");
    EXPECT_EQ(refused, fallback);
    EXPECT_NE(log.find("UATM_TRACE_EVENTS must be an integer in "
                       "[1, 18446744073709551615] (got \"1x\"); "
                       "keeping 1048576"),
              std::string::npos)
        << log;
    EXPECT_EQ(std::count(log.begin(), log.end(), '\n'), 1) << log;
    EXPECT_EQ(taken, 64u);
    EXPECT_EQ(obs::readEnvCount("UATM_TRACE_EVENTS", fallback),
              fallback);
}

TEST(EventTracer, ChromeJsonIsWellFormed)
{
    obs::EventTracer tracer(8);
    tracer.setEnabled(true);
    tracer.record("fill", "fill", 5, 64, 0xabc);
    tracer.record("prefetch_issue", "prefetch", 9, 0);
    const std::string json = tracer.toChromeJson();
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"fill\""), std::string::npos);
    // Interval events are "X" completes; zero-duration ones are
    // instants.
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    // Thread-name metadata gives each category its own track.
    EXPECT_NE(json.find("thread_name"), std::string::npos);
    EXPECT_NE(json.find("\"schema_version\""), std::string::npos);
}

TEST(EventTracer, WriteChromeJsonRoundTrips)
{
    obs::EventTracer tracer(8);
    tracer.setEnabled(true);
    tracer.record("fill", "fill", 0, 10);
    const std::string path = "/tmp/uatm_test_trace.json";
    ASSERT_TRUE(tracer.writeChromeJson(path));
    const std::string body = slurp(path);
    EXPECT_EQ(body, tracer.toChromeJson());
    std::remove(path.c_str());
}

TEST(EventTracer, WriteChromeJsonFailsGracefully)
{
    obs::EventTracer tracer(4);
    EXPECT_FALSE(
        tracer.writeChromeJson("/nonexistent-dir/trace.json"));
}

TEST(EventTracer, WriteChromeJsonReportsAFailedWrite)
{
    obs::EventTracer tracer(8);
    tracer.setEnabled(true);
    tracer.record("fill", "fill", 0, 10);
    EXPECT_FALSE(tracer.writeChromeJson("/dev/full"));
}

TEST(EventTracer, CounterEventsRoundTripAsCounterTrack)
{
    obs::EventTracer tracer(8);
    tracer.setEnabled(true);
    tracer.record("fill", "fill", 0, 10);
    tracer.recordCounter("fills", 10, 1);
    tracer.recordCounter("fills", 25, 2);
    const auto parsed = obs::parseJson(tracer.toChromeJson());
    ASSERT_TRUE(parsed.ok) << parsed.error;
    const obs::JsonValue *events =
        parsed.value.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    std::size_t counters = 0;
    double last_value = -1.0;
    for (const obs::JsonValue &event : events->items()) {
        if (event.at("ph").asString() != "C")
            continue;
        ++counters;
        EXPECT_EQ(event.at("name").asString(), "fills");
        const obs::JsonValue *args = event.find("args");
        ASSERT_NE(args, nullptr);
        last_value = args->at("value").asNumber();
    }
    EXPECT_EQ(counters, 2u);
    EXPECT_DOUBLE_EQ(last_value, 2.0);
}

TEST(EventTracer, DisabledCounterRecordsNothing)
{
    obs::EventTracer tracer(8);
    tracer.recordCounter("fills", 0, 1);
    EXPECT_EQ(tracer.recorded(), 0u);
}

// ------------------------------------------------------------ JsonParser

TEST(JsonParser, ParsesNestedDocument)
{
    const auto parsed = obs::parseJson(
        "{\"n\": 3, \"list\": [1, 2.5, true, null], "
        "\"child\": {\"s\": \"x\"}}");
    ASSERT_TRUE(parsed.ok) << parsed.error;
    const obs::JsonValue &root = parsed.value;
    ASSERT_TRUE(root.isObject());
    EXPECT_DOUBLE_EQ(root.at("n").asNumber(), 3.0);
    const obs::JsonValue *list = root.find("list");
    ASSERT_NE(list, nullptr);
    ASSERT_TRUE(list->isArray());
    ASSERT_EQ(list->size(), 4u);
    EXPECT_DOUBLE_EQ(list->at(1).asNumber(), 2.5);
    EXPECT_TRUE(list->at(2).asBool());
    EXPECT_TRUE(list->at(3).isNull());
    EXPECT_EQ(root.at("child").at("s").asString(), "x");
}

TEST(JsonParser, RoundTripsWriterEscapes)
{
    // Whatever the writer escapes, the parser must recover.
    const std::string nasty = "a\"b\\c\nd\te\x01";
    obs::JsonWriter w;
    w.beginObject().keyValue("s", nasty).endObject();
    const auto parsed = obs::parseJson(w.str());
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.value.at("s").asString(), nasty);
}

TEST(JsonParser, DecodesUnicodeEscapes)
{
    const auto parsed =
        obs::parseJson("[\"\\u0041\", \"\\uD83D\\uDE00\"]");
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.value.at(0).asString(), "A");
    // U+1F600 as a surrogate pair -> 4-byte UTF-8.
    EXPECT_EQ(parsed.value.at(1).asString(),
              "\xF0\x9F\x98\x80");
}

TEST(JsonParser, RejectsMalformedInputWithPosition)
{
    for (const char *bad :
         {"", "{", "[1,]", "{\"a\" 1}", "tru", "1.2.3",
          "\"unterminated", "{\"a\":1} trailing"}) {
        const auto parsed = obs::parseJson(bad);
        EXPECT_FALSE(parsed.ok) << "accepted: " << bad;
        EXPECT_NE(parsed.error.find("byte "), std::string::npos)
            << "error lacks a position: " << parsed.error;
    }
}

TEST(JsonParser, NumbersThatOverflowADoubleAreRejected)
{
    // JSON has no infinity, so an overflow is a positioned error,
    // not a number that error text would render as null.
    struct Case
    {
        const char *text;
        const char *error;
    };
    for (const Case &c :
         {Case{"1e999", "byte 0: number overflows a double"},
          Case{"-1e999", "byte 0: number overflows a double"},
          Case{"{\"refs\": 1e999}",
               "byte 9: number overflows a double"}}) {
        const auto parsed = obs::parseJson(c.text);
        EXPECT_FALSE(parsed.ok) << "accepted: " << c.text;
        EXPECT_EQ(parsed.error, c.error) << c.text;
    }

    // An underflow still reads as 0.
    for (const char *tiny : {"1e-999", "-1e-999"}) {
        const auto parsed = obs::parseJson(tiny);
        ASSERT_TRUE(parsed.ok) << parsed.error;
        EXPECT_EQ(parsed.value.asNumber(), 0.0) << tiny;
    }
}

TEST(JsonParser, NumbersFollowTheRfcGrammar)
{
    // A number starts with a minus or a digit, and a fraction or an
    // exponent has digits of its own.
    for (const char *bad : {"+8", ".95", "1.", "1e", "1e+", "-", "--1",
                            "0x10", "1.5e3.2"}) {
        EXPECT_FALSE(obs::parseJson(bad).ok) << "accepted: " << bad;
    }
    for (const char *good : {"8", "-0", "0.95", "1e6", "1E-3", "2.5e+2"}) {
        const auto parsed = obs::parseJson(good);
        ASSERT_TRUE(parsed.ok) << good << ": " << parsed.error;
        EXPECT_EQ(parsed.value.literal(), good);
    }
}

// ------------------------------------------------- the checked reader

/** A document with one key of each kind the reader checks. */
struct Sample
{
    std::string name;
    unsigned count = 0;
    bool flag = false;
    double ratio = 0.0;
    std::vector<double> list;
};

const obs::JsonField<Sample> kSampleFields[] = {
    obs::field<&Sample::name>("name", true),
    obs::field<&Sample::count, 1, 10>("count"),
    obs::field<&Sample::flag>("flag"),
    obs::field<&Sample::ratio>("ratio"),
    obs::field<&Sample::list>("list"),
};

TEST(JsonReader, PathsNameTheDocumentAndTheValue)
{
    const obs::JsonPath root("doc");
    EXPECT_EQ(root.str(), "");
    EXPECT_EQ(root.error("must be x").message(), "doc must be x");
    EXPECT_EQ(root.key("a").index(2).key("b").str(), "a[2].b");
    const Status status = root.key("a").index(2).error("must be x");
    EXPECT_EQ(status.code(), ErrorCode::ParseError);
    EXPECT_EQ(status.message(), "doc: a[2] must be x");
}

TEST(JsonReader, IntegersFollowOneRule)
{
    constexpr std::uint64_t kMax = ~std::uint64_t{0};
    EXPECT_EQ(obs::exactUint(0.0, 0, kMax), 0u);
    // The largest double below 2^64 fits; 2^64 does not.
    EXPECT_EQ(obs::exactUint(18446744073709549568.0, 0, kMax),
              18446744073709549568u);
    EXPECT_FALSE(obs::exactUint(18446744073709551616.0, 0, kMax));
    EXPECT_FALSE(obs::exactUint(-1.0, 0, kMax));
    EXPECT_FALSE(obs::exactUint(1.5, 0, kMax));
    EXPECT_FALSE(obs::exactUint(std::nan(""), 0, kMax));
    EXPECT_FALSE(obs::exactUint(4.0, 5, 9));
    EXPECT_FALSE(obs::exactUint(10.0, 5, 9));

    EXPECT_EQ(obs::exactInt(-9223372036854775808.0),
              std::numeric_limits<std::int64_t>::min());
    EXPECT_FALSE(obs::exactInt(9223372036854775808.0));
    EXPECT_EQ(obs::exactInt(-3.0), -3);
    EXPECT_FALSE(obs::exactInt(-3.5));
    EXPECT_FALSE(obs::exactInt(std::nan("")));
}

TEST(JsonReader, IntegerLiteralsReadExactly)
{
    constexpr std::uint64_t kMax = ~std::uint64_t{0};
    const auto exact = [](const char *text, std::uint64_t lo,
                          std::uint64_t hi) {
        return obs::exactUint(obs::parseJson(text).value, lo, hi);
    };
    // Digits are read as typed; 2^53 + 1 is no double.
    EXPECT_EQ(exact("9007199254740993", 0, kMax), 9007199254740993u);
    EXPECT_EQ(exact("18446744073709551615", 0, kMax), kMax);
    EXPECT_FALSE(exact("18446744073709551616", 0, kMax));
    EXPECT_FALSE(exact("10", 0, 9));
    // Any other literal goes through its double.
    EXPECT_EQ(exact("1e6", 0, kMax), 1000000u);
    EXPECT_EQ(exact("-0", 0, kMax), 0u);
    EXPECT_FALSE(exact("-1", 0, kMax));
    EXPECT_FALSE(exact("2.5", 0, kMax));

    // A message quotes the number as the document spells it.
    std::uint64_t out = 0;
    EXPECT_EQ(obs::readJson(obs::parseJson("1e300").value,
                            obs::JsonPath("doc").key("n"), out)
                  .message(),
              "doc: n must be an integer in [0, 18446744073709551615] "
              "(got 1e300)");
}

TEST(JsonReader, FieldsCheckKindRangeAndPresence)
{
    Sample sample;
    ASSERT_TRUE(obs::readDocument(
                    "{\"name\": \"s\", \"count\": 10, \"flag\": true, "
                    "\"ratio\": 0.5, \"list\": [1, 2], \"extra\": 0}",
                    "sample", sample, kSampleFields)
                    .ok());
    EXPECT_EQ(sample.name, "s");
    EXPECT_EQ(sample.count, 10u);
    EXPECT_TRUE(sample.flag);
    EXPECT_EQ(sample.ratio, 0.5);
    EXPECT_EQ(sample.list, (std::vector<double>{1, 2}));

    struct Case
    {
        const char *json;
        const char *message;
    };
    const Case cases[] = {
        {"[1]", "sample must be an object (got an array)"},
        {"{}", "sample: name is required"},
        {"{\"name\": 7}", "sample: name must be a string (got 7)"},
        {"{\"name\": \"s\", \"count\": 0}",
         "sample: count must be an integer in [1, 10] (got 0)"},
        {"{\"name\": \"s\", \"count\": \"many\"}",
         "sample: count must be an integer in [1, 10] (got \"many\")"},
        {"{\"name\": \"s\", \"flag\": null}",
         "sample: flag must be a bool (got null)"},
        {"{\"name\": \"s\", \"ratio\": {}}",
         "sample: ratio must be a number (got an object)"},
        {"{\"name\": \"s\", \"list\": [1, false]}",
         "sample: list[1] must be a number (got false)"},
        {"{\"name\": \"s\", \"list\": 1e999}",
         "sample: byte 22: number overflows a double"},
    };
    for (const Case &c : cases) {
        const Status status =
            obs::readDocument(c.json, "sample", sample, kSampleFields);
        EXPECT_EQ(status.code(), ErrorCode::ParseError) << c.json;
        EXPECT_EQ(status.message(), c.message) << c.json;
    }

    // A refusing schema names the first key it does not list.
    const Status refused = obs::readDocument(
        "{\"name\": \"s\", \"extra\": 0}", "sample", sample,
        kSampleFields, obs::UnknownKeys::Refuse);
    EXPECT_EQ(refused.code(), ErrorCode::ParseError);
    EXPECT_EQ(refused.message(), "sample: unknown field \"extra\"");
}

// ------------------------------------------------- Prometheus exposition

TEST(Prometheus, GaugeWithHelpTypeAndUnitSuffix)
{
    obs::StatRegistry reg;
    reg.addScalar("sim.cycles", 42.0, "total cycles", "cycles");
    reg.addScalar("sim.fills", 7.0, "", "count");
    const std::string text = reg.dumpPrometheus();
    // Dotted name sanitized, unit appended; "count" units don't
    // grow a suffix.
    EXPECT_NE(text.find("# HELP uatm_sim_cycles_cycles "
                        "total cycles\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE uatm_sim_cycles_cycles gauge\n"),
              std::string::npos);
    EXPECT_NE(text.find("uatm_sim_cycles_cycles 42\n"),
              std::string::npos);
    EXPECT_NE(text.find("uatm_sim_fills 7\n"), std::string::npos);
    // Empty description falls back to the stat name.
    EXPECT_NE(text.find("# HELP uatm_sim_fills sim.fills\n"),
              std::string::npos);
}

TEST(Prometheus, EveryLineIsHelpTypeOrSample)
{
    obs::StatRegistry reg;
    reg.addScalar("a.b", 1.5, "first", "cycles");
    reg.addFormula("c", [] { return 2.0; }, "second");
    obs::LatencyHistogram h;
    h.add(1.0);
    reg.addLatencyHistogram("d", h, "third");
    std::istringstream in(reg.dumpPrometheus());
    std::string line;
    std::size_t samples = 0;
    while (std::getline(in, line)) {
        ASSERT_FALSE(line.empty());
        if (line.rfind("# HELP ", 0) == 0 ||
            line.rfind("# TYPE ", 0) == 0)
            continue;
        // sample line: <name>[{labels}] <value>
        const auto space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        EXPECT_NE(line.substr(0, space).find("uatm_"),
                  std::string::npos)
            << line;
        ++samples;
    }
    // 2 gauges + the histogram's one occupied bucket, its +Inf
    // bucket, _sum and _count.
    EXPECT_EQ(samples, 6u);
}

TEST(Prometheus, MetricNameSanitization)
{
    // Prometheus metric names must match
    // [a-zA-Z_:][a-zA-Z0-9_:]* — dots, dashes, slashes and
    // spaces all flatten to '_', and a leading digit may not
    // survive as the first character.
    obs::StatRegistry reg;
    reg.addScalar("9lives", 1.0, "leading digit");
    reg.addScalar("a-b c/d", 2.0, "punctuation");
    std::istringstream in(reg.dumpPrometheus());
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const std::string name =
            line.substr(0, line.find_first_of(" {"));
        ASSERT_FALSE(name.empty()) << line;
        EXPECT_TRUE(std::isalpha(
                        static_cast<unsigned char>(name[0])) ||
                    name[0] == '_' || name[0] == ':')
            << "illegal first char: " << line;
        for (char c : name) {
            EXPECT_TRUE(std::isalnum(
                            static_cast<unsigned char>(c)) ||
                        c == '_' || c == ':')
                << "illegal char '" << c << "' in: " << line;
        }
    }
}

TEST(Prometheus, HelpEscaping)
{
    // HELP text escapes backslash and newline (not quotes — HELP
    // is not a quoted string in the exposition format).
    obs::StatRegistry reg;
    reg.addScalar("x", 1.0, "path C:\\tmp\nsecond line");
    const std::string text = reg.dumpPrometheus();
    EXPECT_NE(text.find("C:\\\\tmp\\nsecond line"),
              std::string::npos);
    // The raw newline must not split the HELP line.
    EXPECT_EQ(text.find("C:\\tmp\nsecond"), std::string::npos);
}

TEST(Prometheus, SanitizationCollisionsGetDeterministicSuffixes)
{
    // "a.b" and "a-b" both flatten to "a_b"; the second metric
    // must not repeat the first one's name (and HELP/TYPE block).
    obs::StatRegistry reg;
    reg.addScalar("a.b", 1.0, "first");
    reg.addScalar("a-b", 2.0, "second");
    const std::string text = reg.dumpPrometheus();
    EXPECT_NE(text.find("uatm_a_b 1\n"), std::string::npos);
    EXPECT_NE(text.find("uatm_a_b_2 2\n"), std::string::npos);
    // Exactly one TYPE line per final metric name.
    EXPECT_NE(text.find("# TYPE uatm_a_b gauge\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE uatm_a_b_2 gauge\n"),
              std::string::npos);
}

TEST(Prometheus, GaugeCollidingWithHistogramSeriesIsRenamed)
{
    // A histogram "lat" owns lat_bucket/lat_sum/lat_count; a
    // gauge that sanitizes to "lat_count" would corrupt the
    // histogram's series and must be deflected.
    obs::LatencyHistogram hist;
    hist.add(1.0);
    obs::StatRegistry reg;
    reg.addLatencyHistogram("lat", hist, "latency", "");
    reg.addScalar("lat.count", 7.0, "imposter");
    const std::string text = reg.dumpPrometheus();
    // The histogram's own count series survives untouched...
    EXPECT_NE(text.find("uatm_lat_count 1\n"),
              std::string::npos);
    // ...and the gauge got a deterministic suffix.
    EXPECT_NE(text.find("uatm_lat_count_2 7\n"),
              std::string::npos);
}

TEST(Prometheus, NonFiniteValuesUseExpositionTokens)
{
    // The exposition format spells non-finite values "NaN",
    // "+Inf", "-Inf" — never printf's "nan"/"inf" casings, which
    // scrapers reject.
    obs::StatRegistry reg;
    reg.addFormula(
        "bad.ratio", [] { return 0.0 / 0.0; }, "nan formula");
    reg.addFormula(
        "hot.ratio", [] { return 1.0 / 0.0; }, "inf formula");
    std::istringstream in(reg.dumpPrometheus());
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const std::string value =
            line.substr(line.rfind(' ') + 1);
        EXPECT_TRUE(value == "NaN" || value == "+Inf")
            << line;
    }
}

TEST(Prometheus, HistogramBucketsAreCumulativeAndConsistent)
{
    obs::LatencyHistogram hist;
    hist.add(0.5);
    hist.add(3.0);
    hist.add(3.0);
    hist.add(100.0);
    // Past the last finite edge (2^62 ns): only the +Inf row and
    // _count hold this sample, so a dump that builds either from
    // the finite rows comes up one short.
    const double overflow = 1e19;
    ASSERT_GT(overflow,
              hist.upperEdge(obs::LatencyHistogram::kBuckets - 2));
    hist.add(overflow);
    obs::StatRegistry reg;
    reg.addLatencyHistogram("lat", hist, "latency", "ns");

    std::istringstream in(reg.dumpPrometheus());
    std::string line;
    double previous = -1.0;
    double lastFinite = -1.0;
    double infBucket = -1.0;
    double count = -1.0;
    bool sawSum = false;
    std::size_t buckets = 0;
    while (std::getline(in, line)) {
        if (line.rfind("# TYPE", 0) == 0 &&
            line.find("lat") != std::string::npos) {
            EXPECT_NE(line.find("histogram"), std::string::npos)
                << line;
        }
        if (line.empty() || line[0] == '#')
            continue;
        const auto space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        const double value =
            std::atof(line.c_str() + space + 1);
        if (line.find("_bucket{") != std::string::npos) {
            // Buckets are cumulative: each count must be >= the
            // previous one, in emission order.
            EXPECT_GE(value, previous) << line;
            previous = value;
            ++buckets;
            if (line.find("le=\"+Inf\"") != std::string::npos)
                infBucket = value;
            else
                lastFinite = value;
        } else if (line.find("_sum") != std::string::npos) {
            sawSum = true;
            EXPECT_DOUBLE_EQ(value,
                             0.5 + 3.0 + 3.0 + 100.0 + overflow);
        } else if (line.find("_count") != std::string::npos) {
            count = value;
        }
    }
    ASSERT_GT(buckets, 0u);
    EXPECT_TRUE(sawSum);
    // The finite rows stop short of the overflow sample; the +Inf
    // bucket is last, equals _count, and covers every sample.
    EXPECT_DOUBLE_EQ(lastFinite, 4.0);
    EXPECT_DOUBLE_EQ(infBucket, previous);
    EXPECT_DOUBLE_EQ(infBucket, count);
    EXPECT_DOUBLE_EQ(count, 5.0);
}

// ----------------------------------------------------- TimingStats drift

/**
 * Drift guard: every numeric TimingStats field must round-trip
 * through registerStats()/toJson() under its own name.  The
 * companion static_assert in timing_engine.cc pins the field
 * count; this test pins the *names and values*.
 */
TEST(TimingStatsDrift, EveryFieldRoundTrips)
{
    TimingStats stats;
    stats.cycles = 101;
    stats.instructions = 102;
    stats.references = 103;
    stats.fills = 104;
    stats.writeArounds = 105;
    stats.initialMissWait = 106;
    stats.inflightAccessStall = 107;
    stats.missSerializationStall = 108;
    stats.flushStall = 109;
    stats.writeStall = 110;
    stats.bufferFullStall = 111;
    stats.portContentionWait = 112;
    stats.prefetchesIssued = 113;
    stats.prefetchesUseful = 114;
    stats.prefetchesLate = 115;

    // The fields in declaration order, by stat name.
    const char *names[] = {
        "sim.cycles", "sim.instructions", "sim.references",
        "sim.fills", "sim.write_arounds",
        "stall.initial_miss_wait", "stall.inflight_access",
        "stall.miss_serialization", "stall.flush", "stall.write",
        "stall.buffer_full", "port.contention_wait",
        "prefetch.issued", "prefetch.useful", "prefetch.late"};

    obs::StatRegistry reg;
    stats.registerStats(reg, "engine", 8);
    // 15 numeric fields — matches the sizeof static_assert in
    // timing_engine.cc — and the three derived formulas.
    ASSERT_EQ(reg.size(), 15u + 3u);

    // Distinct sentinel values: any copy/paste slip in
    // registerStats() (wrong field for a name) breaks exactly one
    // of these.  Every counter must appear in the JSON dump too.
    const std::string json = reg.toJson();
    std::uint64_t expected = 101;
    for (const char *name : names) {
        const std::string qualified = std::string("engine.") + name;
        ASSERT_TRUE(reg.contains(qualified))
            << qualified << " missing from registerStats()";
        EXPECT_DOUBLE_EQ(reg.value(qualified),
                         static_cast<double>(expected))
            << "stat '" << qualified << "' mapped to the wrong "
            << "TimingStats field";
        EXPECT_NE(json.find("\"" + qualified + "\""),
                  std::string::npos)
            << qualified << " missing from the JSON dump";
        ++expected;
    }

    // Derived formulas ride along and agree with the methods.
    EXPECT_DOUBLE_EQ(reg.value("engine.derived.cpi"),
                     stats.cpi());
    EXPECT_DOUBLE_EQ(reg.value("engine.derived.mean_memory_delay"),
                     stats.meanMemoryDelay());
    EXPECT_DOUBLE_EQ(reg.value("engine.derived.phi"),
                     stats.phi(8));
}

TEST(TimingStatsDrift, PhiFormulaOnlyWithCycleTime)
{
    TimingStats stats;
    obs::StatRegistry reg;
    stats.registerStats(reg, "engine"); // mu_m omitted
    EXPECT_FALSE(reg.contains("engine.derived.phi"));
    EXPECT_TRUE(reg.contains("engine.derived.cpi"));
}

// -------------------------------------------------------------- Manifest

TEST(Manifest, StampsSchemaToolAndGit)
{
    obs::Manifest m;
    m.setTool("test_obs");
    EXPECT_EQ(m.lookup("run", "tool"), "test_obs");
    EXPECT_NE(m.lookup("run", "schema_version"), "");
    EXPECT_NE(m.lookup("run", "git_describe"), "");
    EXPECT_STRNE(obs::Manifest::gitDescribe(), "");
}

TEST(Manifest, SetLookupAndOverwrite)
{
    obs::Manifest m;
    m.set("cache", "size_bytes", std::uint64_t{8192});
    m.set("cache", "describe", "8KB 2-way");
    m.set("cpu", "suppress_flush_traffic", true);
    m.set("memory", "cycle_time", 12.0);
    EXPECT_EQ(m.lookup("cache", "size_bytes"), "8192");
    EXPECT_EQ(m.lookup("cache", "describe"), "8KB 2-way");
    EXPECT_EQ(m.lookup("cpu", "suppress_flush_traffic"), "true");
    EXPECT_EQ(m.lookup("absent", "key"), "");
    const std::size_t before = m.size();
    m.set("cache", "size_bytes", std::uint64_t{16384});
    EXPECT_EQ(m.size(), before); // replaced, not duplicated
    EXPECT_EQ(m.lookup("cache", "size_bytes"), "16384");
}

TEST(Manifest, JsonEmbedsStatsDump)
{
    obs::Manifest m;
    obs::StatRegistry reg;
    reg.addScalar("sim.cycles", 64.0, "cycles", "cycles");
    m.setStats(reg);
    const std::string json = m.toJson();
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"stats\""), std::string::npos);
    EXPECT_NE(json.find("\"sim.cycles\""), std::string::npos);
    EXPECT_NE(json.find("\"schema_version\""),
              std::string::npos);
}

TEST(Manifest, WriteProducesReadableFile)
{
    obs::Manifest m;
    m.set("workload", "profile", "doduc");
    const std::string path = "/tmp/uatm_test_manifest.json";
    ASSERT_TRUE(m.write(path).ok());
    const std::string body = slurp(path);
    EXPECT_EQ(body, m.toJson());
    EXPECT_NE(body.find("\"doduc\""), std::string::npos);
    std::remove(path.c_str());
}

TEST(Manifest, FailedWriteIsAnIoErrorNamingThePath)
{
    obs::Manifest m;
    m.set("workload", "profile", "doduc");
    const Status written = m.write("/dev/full");
    EXPECT_EQ(written.code(), ErrorCode::IoError);
    EXPECT_NE(written.message().find("failed while writing '/dev/full'"),
              std::string::npos)
        << written.message();
}

// ------------------------------------------------------ ProfileRegistry

TEST(ProfileRegistry, ScopedTimerFeedsNamedScope)
{
    auto &profile = obs::ProfileRegistry::instance();
    profile.clear();
    const bool was = profile.enabled();
    profile.setEnabled(true);
    {
        UATM_PROFILE_SCOPE("test.scope");
        UATM_PROFILE_SCOPE("test.other");
    }
    {
        UATM_PROFILE_SCOPE("test.scope");
    }
    profile.setEnabled(was);

    obs::StatRegistry reg;
    profile.registerStats(reg, "profile");
    const obs::StatEntry *scope = reg.find("profile.test.scope");
    ASSERT_NE(scope, nullptr);
    EXPECT_EQ(scope->kind, obs::StatKind::Histogram);
    EXPECT_EQ(scope->unit, "ns");
    EXPECT_EQ(scope->histogram.count(), 2u);
    EXPECT_GE(scope->histogram.min(), 0.0);
    const obs::StatEntry *other = reg.find("profile.test.other");
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(other->histogram.count(), 1u);

    profile.clear();
    obs::StatRegistry cleared;
    profile.registerStats(cleared, "profile");
    EXPECT_EQ(cleared.size(), 0u);
}

TEST(ProfileRegistry, CounterDeltasBecomeHistogramsPerEvent)
{
    auto &profile = obs::ProfileRegistry::instance();
    profile.clear();
    obs::PerfCounterValues delta;
    delta.available = true;
    delta.mask = 1u << static_cast<unsigned>(
                     obs::PerfEvent::ContextSwitches);
    delta.value[static_cast<std::size_t>(
        obs::PerfEvent::ContextSwitches)] = 3.0;
    profile.recordCounters("test.counted", delta);
    delta.value[static_cast<std::size_t>(
        obs::PerfEvent::ContextSwitches)] = 5.0;
    profile.recordCounters("test.counted", delta);

    obs::StatRegistry reg;
    profile.registerStats(reg, "profile");
    profile.clear();
    // Only the event the mask names gets a histogram.
    ASSERT_EQ(reg.size(), 1u);
    const obs::StatEntry *entry =
        reg.find("profile.test.counted.context_switches");
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->kind, obs::StatKind::Histogram);
    EXPECT_EQ(entry->unit, "count");
    EXPECT_EQ(entry->histogram.count(), 2u);
    EXPECT_DOUBLE_EQ(entry->histogram.sum(), 8.0);
}

TEST(ProfileRegistry, DisabledTimerRecordsNothing)
{
    auto &profile = obs::ProfileRegistry::instance();
    profile.clear();
    const bool was = profile.enabled();
    profile.setEnabled(false);
    {
        UATM_PROFILE_SCOPE("test.ghost");
    }
    profile.setEnabled(was);
    obs::StatRegistry reg;
    profile.registerStats(reg, "profile");
    EXPECT_FALSE(reg.contains("profile.test.ghost"));
}

// ------------------------------------------------------- BenchSuite

TEST(BenchSuite, RunsAndRecordsResults)
{
    obs::BenchSuite suite("unit");
    std::uint64_t calls = 0;
    suite.add("counting", [&calls](obs::BenchState &state) {
        state.setItems(4);
        ++calls;
        // Enough work that steady_clock sees a nonzero duration.
        std::uint64_t acc = 0;
        for (std::uint64_t i = 0; i < 50000; ++i)
            acc += i * i;
        obs::doNotOptimize(acc);
    });
    obs::BenchSuite::RunOptions options;
    options.reps = 3;
    options.writeJson = false;
    EXPECT_EQ(suite.run(options).value(), 1u);
    EXPECT_EQ(calls, 5u); // 2 warmup + 3 timed
    ASSERT_EQ(suite.results().size(), 1u);
    const obs::BenchResult &result = suite.results()[0];
    EXPECT_EQ(result.name, "counting");
    EXPECT_EQ(result.reps, 3u);
    EXPECT_EQ(result.itemsPerRep, 4u);
    EXPECT_GT(result.nsPerRepMedian, 0.0);
    EXPECT_GT(result.itemsPerSecond(), 0.0);
}

TEST(BenchSuite, FilterAndListRunNothing)
{
    obs::BenchSuite suite("unit");
    bool ran = false;
    suite.add("cache/access", [&ran](obs::BenchState &) {
        ran = true;
    });
    suite.add("engine/step", [](obs::BenchState &) {});

    obs::BenchSuite::RunOptions options;
    options.writeJson = false;
    options.reps = 1;
    options.filter = "engine";
    EXPECT_EQ(suite.run(options).value(), 1u);
    EXPECT_FALSE(ran); // filtered out

    options.filter.clear();
    options.listOnly = true;
    EXPECT_EQ(suite.run(options).value(), 2u);
    EXPECT_FALSE(ran); // listed, not executed
}

TEST(BenchSuite, MalformedRepsVariableWarnsOnceAndKeepsTwenty)
{
    // "1x" once ran one rep; it is refused as --reps=1x is, with
    // one warning per run however many benchmarks it times.
    ::setenv("UATM_BENCH_REPS", "1x", 1);
    obs::BenchSuite suite("unit");
    suite.add("a", [](obs::BenchState &) {});
    suite.add("b", [](obs::BenchState &) {});
    obs::BenchSuite::RunOptions options;
    options.writeJson = false;
    testing::internal::CaptureStderr();
    const Expected<std::size_t> ran = suite.run(options);
    const std::string log = testing::internal::GetCapturedStderr();
    ::unsetenv("UATM_BENCH_REPS");
    ASSERT_EQ(ran.value(), 2u);
    for (const auto &result : suite.results())
        EXPECT_EQ(result.reps, 20u) << result.name;
    EXPECT_NE(log.find("UATM_BENCH_REPS must be an integer in "
                       "[1, 4294967295] (got \"1x\"); keeping 20"),
              std::string::npos)
        << log;
    EXPECT_EQ(std::count(log.begin(), log.end(), '\n'), 1) << log;
}

TEST(BenchSuite, StatDeltaCoversTimedRepsOnly)
{
    obs::BenchSuite suite("unit");
    double counter = 0.0;
    suite.add("delta", [&counter](obs::BenchState &state) {
        state.setItems(1);
        state.setStatsProvider(
            [&counter](obs::StatRegistry &reg) {
                reg.addScalar("work.done", counter, "");
            });
        counter += 10.0;
    });
    obs::BenchSuite::RunOptions options;
    options.reps = 5;
    options.writeJson = false;
    ASSERT_TRUE(suite.run(options).ok());
    ASSERT_EQ(suite.results().size(), 1u);
    const auto &delta = suite.results()[0].statDelta;
    ASSERT_EQ(delta.size(), 1u);
    EXPECT_EQ(delta[0].first, "work.done");
    // 5 timed reps x 10, warmup excluded.
    EXPECT_DOUBLE_EQ(delta[0].second, 50.0);
}

TEST(BenchSuite, JsonCarriesSchemaAndStatDelta)
{
    obs::BenchSuite suite("unit");
    suite.add("j", [](obs::BenchState &state) {
        state.setItems(2);
        state.setStatsProvider([](obs::StatRegistry &reg) {
            reg.addScalar("x", 1.0, "");
        });
        std::uint64_t acc = 0;
        for (std::uint64_t i = 0; i < 50000; ++i)
            acc += i * i;
        obs::doNotOptimize(acc);
    });
    obs::BenchSuite::RunOptions options;
    options.reps = 2;
    options.writeJson = false;
    ASSERT_TRUE(suite.run(options).ok());
    const auto parsed = obs::parseJson(suite.toJson());
    ASSERT_TRUE(parsed.ok) << parsed.error;
    const obs::JsonValue &doc = parsed.value;
    EXPECT_DOUBLE_EQ(doc.at("schema_version").asNumber(),
                     obs::kBenchSchemaVersion);
    EXPECT_EQ(doc.at("suite").asString(), "unit");
    EXPECT_FALSE(doc.at("git_describe").asString().empty());
    const obs::JsonValue *list = doc.find("benchmarks");
    ASSERT_NE(list, nullptr);
    ASSERT_EQ(list->size(), 1u);
    const obs::JsonValue &record = list->at(0);
    EXPECT_EQ(record.at("name").asString(), "j");
    EXPECT_DOUBLE_EQ(record.at("reps").asNumber(), 2.0);
    EXPECT_DOUBLE_EQ(record.at("items_per_rep").asNumber(), 2.0);
    ASSERT_NE(record.find("ns_per_rep"), nullptr);
    EXPECT_GT(record.at("ns_per_rep").at("median").asNumber(), 0.0);
    EXPECT_GT(record.at("ns_per_op").asNumber(), 0.0);
    EXPECT_GT(record.at("items_per_second").asNumber(), 0.0);
    const obs::JsonValue *stat_delta = record.find("stat_delta");
    ASSERT_NE(stat_delta, nullptr);
    EXPECT_TRUE(stat_delta->isObject());
    EXPECT_NE(stat_delta->find("x"), nullptr);
}

// --------------------------------------------------- perf comparator

namespace perfdoc {

/** One synthetic BENCH_*.json record. */
struct Record
{
    const char *name;
    double nsPerOp;
    double madPerRep;
    double itemsPerRep = 1.0;
};

/** @p json read as a BENCH record; an empty one on failure. */
obs::BenchRecord
read(const std::string &json)
{
    auto record = obs::BenchRecord::fromJson(json);
    EXPECT_TRUE(record.ok()) << record.status().toString();
    return record.valueOr({});
}

obs::BenchRecord
make(const std::vector<Record> &records)
{
    obs::JsonWriter w;
    w.beginObject();
    w.keyValue("schema_version", obs::kBenchSchemaVersion);
    w.keyValue("suite", "synthetic");
    w.keyValue("git_describe", "test");
    w.key("benchmarks").beginArray();
    for (const Record &r : records) {
        w.beginObject();
        w.keyValue("name", r.name);
        w.keyValue("reps", 5);
        w.keyValue("items_per_rep", r.itemsPerRep);
        w.key("ns_per_rep")
            .beginObject()
            .keyValue("median", r.nsPerOp * r.itemsPerRep)
            .keyValue("mad", r.madPerRep)
            .endObject();
        w.keyValue("ns_per_op", r.nsPerOp);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return read(w.str());
}

/** One benchmark entry with every key the comparators require. */
std::string
entry(const std::string &name, const std::string &extra = "")
{
    return "{\"name\": \"" + name +
           "\", \"reps\": 1, \"items_per_rep\": 1, "
           "\"ns_per_rep\": {\"median\": 10, \"mad\": 0}" +
           extra + "}";
}

} // namespace perfdoc

TEST(PerfDiff, IdenticalRunsHaveNoRegressions)
{
    const auto doc = perfdoc::make(
        {{"a", 100.0, 1.0}, {"b", 5.0, 0.1}});
    const auto deltas = obs::comparePerf(doc, doc);
    ASSERT_EQ(deltas.size(), 2u);
    for (const auto &delta : deltas) {
        EXPECT_EQ(delta.verdict,
                  obs::PerfDelta::Verdict::Similar);
        EXPECT_DOUBLE_EQ(delta.ratio(), 1.0);
    }
    EXPECT_EQ(obs::countRegressions(deltas), 0u);
}

TEST(PerfDiff, FlagsClearRegressionAndImprovement)
{
    const auto before = perfdoc::make(
        {{"slows", 100.0, 1.0}, {"speeds", 100.0, 1.0}});
    const auto after = perfdoc::make(
        {{"slows", 200.0, 1.0}, {"speeds", 50.0, 1.0}});
    const auto deltas = obs::comparePerf(before, after);
    ASSERT_EQ(deltas.size(), 2u);
    EXPECT_EQ(deltas[0].verdict,
              obs::PerfDelta::Verdict::Regressed);
    EXPECT_DOUBLE_EQ(deltas[0].ratio(), 2.0);
    EXPECT_EQ(deltas[1].verdict,
              obs::PerfDelta::Verdict::Improved);
    EXPECT_EQ(obs::countRegressions(deltas), 1u);

    // The table names every benchmark and its verdict.
    const std::string table = obs::formatPerfTable(deltas);
    EXPECT_NE(table.find("slows"), std::string::npos);
    // Regressions shout; everything else stays lowercase.
    EXPECT_NE(table.find("REGRESSED"), std::string::npos);
    EXPECT_NE(table.find("improved"), std::string::npos);
}

TEST(PerfDiff, NoisyChangeWithinMadThresholdIsSimilar)
{
    // +20% change, but the MAD says the run wobbles by ~10 ns/op;
    // 4 sigmas x 1.4826 x 10 ≈ 59 ns absorbs it.
    const auto before = perfdoc::make({{"noisy", 100.0, 10.0}});
    const auto after = perfdoc::make({{"noisy", 120.0, 10.0}});
    const auto deltas = obs::comparePerf(before, after);
    ASSERT_EQ(deltas.size(), 1u);
    EXPECT_EQ(deltas[0].verdict,
              obs::PerfDelta::Verdict::Similar);

    // The same +20% on a quiet benchmark is a real regression.
    const auto quiet_before =
        perfdoc::make({{"quiet", 100.0, 0.01}});
    const auto quiet_after =
        perfdoc::make({{"quiet", 120.0, 0.01}});
    const auto quiet =
        obs::comparePerf(quiet_before, quiet_after);
    EXPECT_EQ(quiet[0].verdict,
              obs::PerfDelta::Verdict::Regressed);
}

TEST(PerfDiff, UniformSuiteDriftIsNormalizedOut)
{
    // The whole suite got 18% "slower" — that's the machine, not
    // the code, and the median-ratio normalization absorbs it.
    const auto before = perfdoc::make({{"a", 100.0, 0.1},
                                       {"b", 50.0, 0.1},
                                       {"c", 200.0, 0.1},
                                       {"d", 10.0, 0.1}});
    const auto after = perfdoc::make({{"a", 118.0, 0.1},
                                      {"b", 59.0, 0.1},
                                      {"c", 236.0, 0.1},
                                      {"d", 11.8, 0.1}});
    const auto deltas = obs::comparePerf(before, after);
    EXPECT_EQ(obs::countRegressions(deltas), 0u);
    for (const auto &delta : deltas) {
        EXPECT_EQ(delta.verdict,
                  obs::PerfDelta::Verdict::Similar);
        EXPECT_NEAR(delta.appliedDrift, 1.18, 1e-9);
    }

    // Opting out gates on the raw times again.
    obs::PerfDiffOptions raw;
    raw.normalizeDrift = false;
    EXPECT_EQ(obs::countRegressions(
                  obs::comparePerf(before, after, raw)),
              4u);
}

TEST(PerfDiff, LocalizedRegressionSurvivesDriftNormalization)
{
    // Three quiet benchmarks anchor the drift estimate at ~1.0;
    // the fourth doubling is a genuine regression.
    const auto before = perfdoc::make({{"a", 100.0, 0.1},
                                       {"b", 50.0, 0.1},
                                       {"c", 200.0, 0.1},
                                       {"slow", 40.0, 0.1}});
    const auto after = perfdoc::make({{"a", 101.0, 0.1},
                                      {"b", 50.0, 0.1},
                                      {"c", 199.0, 0.1},
                                      {"slow", 80.0, 0.1}});
    const auto deltas = obs::comparePerf(before, after);
    ASSERT_EQ(deltas.size(), 4u);
    EXPECT_EQ(obs::countRegressions(deltas), 1u);
    EXPECT_EQ(deltas[3].name, "slow");
    EXPECT_EQ(deltas[3].verdict,
              obs::PerfDelta::Verdict::Regressed);
}

TEST(PerfDiff, FewerThanThreePairsSkipNormalization)
{
    // With only two matched benchmarks the median ratio is too
    // easily dominated by the regression itself — raw gating.
    const auto before =
        perfdoc::make({{"a", 100.0, 0.1}, {"b", 100.0, 0.1}});
    const auto after =
        perfdoc::make({{"a", 200.0, 0.1}, {"b", 200.0, 0.1}});
    const auto deltas = obs::comparePerf(before, after);
    EXPECT_EQ(obs::countRegressions(deltas), 2u);
    EXPECT_DOUBLE_EQ(deltas[0].appliedDrift, 1.0);
}

TEST(PerfDiff, RelativeFloorSilencesTinyAbsoluteChanges)
{
    // 5% change on a dead-quiet benchmark stays under the 10%
    // default relative floor.
    const auto before = perfdoc::make({{"tiny", 100.0, 0.0}});
    const auto after = perfdoc::make({{"tiny", 105.0, 0.0}});
    EXPECT_EQ(obs::comparePerf(before, after)[0].verdict,
              obs::PerfDelta::Verdict::Similar);

    // Tightening the floor (dedicated runner) flags it.
    obs::PerfDiffOptions strict;
    strict.minRelative = 0.02;
    EXPECT_EQ(obs::comparePerf(before, after, strict)[0].verdict,
              obs::PerfDelta::Verdict::Regressed);
}

TEST(PerfDiff, AddedAndRemovedBenchmarksAreReported)
{
    const auto before = perfdoc::make(
        {{"keep", 10.0, 0.1}, {"gone", 20.0, 0.1}});
    const auto after = perfdoc::make(
        {{"keep", 10.0, 0.1}, {"new", 30.0, 0.1}});
    const auto deltas = obs::comparePerf(before, after);
    ASSERT_EQ(deltas.size(), 3u);
    EXPECT_EQ(deltas[0].verdict,
              obs::PerfDelta::Verdict::Similar);
    EXPECT_EQ(deltas[1].verdict,
              obs::PerfDelta::Verdict::Removed);
    EXPECT_EQ(deltas[2].verdict,
              obs::PerfDelta::Verdict::Added);
    // Neither added nor removed entries count as regressions.
    EXPECT_EQ(obs::countRegressions(deltas), 0u);
    EXPECT_DOUBLE_EQ(deltas[1].ratio(), 0.0);
    EXPECT_DOUBLE_EQ(deltas[2].ratio(), 0.0);
}

TEST(PerfDiff, LoadBenchFileValidatesShape)
{
    const std::string path = "/tmp/uatm_test_bench.json";

    const auto missing = obs::loadBenchFile("/nonexistent.json");
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.status().code(), ErrorCode::IoError);

    // Each used to be read with defaults, skipped, or (as a
    // non-array "benchmarks") to abort on an assertion.
    struct Case
    {
        const char *json;
        const char *message;
    };
    const Case cases[] = {
        {"{\"not_benchmarks\": []}", "benchmarks is required"},
        {"{\"benchmarks\": 5}", "benchmarks must be an array (got 5)"},
        {"{\"benchmarks\": [7]}",
         "benchmarks[0] must be an object (got 7)"},
        {"{\"benchmarks\": [{\"name\": \"a\", \"reps\": 1, "
         "\"items_per_rep\": 1, "
         "\"ns_per_rep\": {\"median\": \"fast\", \"mad\": 0}}]}",
         "benchmarks[0].ns_per_rep.median must be a number (got "
         "\"fast\")"},
        {"{\"benchmarks\": [{\"name\": \"a\", \"reps\": -1, "
         "\"items_per_rep\": 1, "
         "\"ns_per_rep\": {\"median\": 1, \"mad\": 0}}]}",
         "benchmarks[0].reps must be an integer in "
         "[0, 18446744073709551615] (got -1)"},
        {"{\"host_cores\": 2.5, \"benchmarks\": []}",
         "host_cores must be an integer in [0, 4294967295] (got 2.5)"},
    };
    for (const Case &c : cases) {
        std::ofstream(path) << c.json;
        const auto record = obs::loadBenchFile(path);
        ASSERT_FALSE(record.ok()) << c.json;
        EXPECT_EQ(record.status().code(), ErrorCode::ParseError)
            << c.json;
        EXPECT_EQ(record.status().message(),
                  "'" + path + "': " + c.message);
    }

    std::ofstream(path) << "{\"benchmarks\": []}";
    const auto empty = obs::loadBenchFile(path);
    EXPECT_TRUE(empty.ok()) << empty.status().toString();
    std::remove(path.c_str());
}

TEST(PerfDiff, CommittedBaselinesLoadAsRecorded)
{
    // The typed record holds what the raw documents say, as the
    // comparators used to read it key by key.
    for (const char *name :
         {"BENCH_sim_throughput.json", "BENCH_sweep_parallel.json"}) {
        const std::string path =
            std::string(UATM_SOURCE_DIR "/bench/baselines/") + name;
        std::ifstream in(path);
        std::stringstream text;
        text << in.rdbuf();
        const auto raw = obs::parseJson(text.str());
        ASSERT_TRUE(raw.ok) << path << ": " << raw.error;
        const auto record = obs::loadBenchFile(path);
        ASSERT_TRUE(record.ok()) << record.status().toString();
        const obs::BenchRecord &r = record.value();
        EXPECT_EQ(r.gitDescribe, raw.value.at("git_describe").asString());
        EXPECT_EQ(r.hostCores, raw.value.at("host_cores").asNumber());
        EXPECT_EQ(r.buildType, raw.value.at("build_type").asString());
        EXPECT_EQ(r.compiler, raw.value.at("compiler").asString());
        const obs::JsonValue list = raw.value.at("benchmarks");
        ASSERT_EQ(r.benchmarks.size(), list.size());
        for (std::size_t i = 0; i < list.size(); ++i) {
            const obs::JsonValue &b = list.at(i);
            const obs::BenchResult &result = r.benchmarks[i];
            EXPECT_EQ(result.name, b.at("name").asString());
            EXPECT_EQ(result.reps, b.at("reps").asNumber());
            EXPECT_EQ(result.itemsPerRep,
                      b.at("items_per_rep").asNumber());
            EXPECT_EQ(result.nsPerRepMedian,
                      b.at("ns_per_rep").at("median").asNumber());
            EXPECT_EQ(result.nsPerRepMad,
                      b.at("ns_per_rep").at("mad").asNumber());
            EXPECT_NEAR(result.nsPerOp(), b.at("ns_per_op").asNumber(),
                        1e-9 * result.nsPerOp());
            EXPECT_EQ(result.hasThreads,
                      b.find("threads_used") != nullptr);
            if (result.hasThreads) {
                EXPECT_EQ(result.threadsRequested,
                          b.at("threads_requested").asNumber());
                EXPECT_EQ(result.threadsUsed,
                          b.at("threads_used").asNumber());
            }
            EXPECT_EQ(result.counters.available,
                      b.at("counters").at("available").asBool());
        }
    }
}

// ------------------------------------------------- engine integration

TEST(EngineTracing, MissesEmitFillAndStallEvents)
{
    CacheConfig cache;
    cache.sizeBytes = 256;
    cache.assoc = 2;
    cache.lineBytes = 32;
    MemoryConfig mem;
    mem.busWidthBytes = 4;
    mem.cycleTime = 8;
    CpuConfig cpu;
    cpu.feature = StallFeature::FS;
    TimingEngine engine(cache, mem, WriteBufferConfig{0, true},
                        cpu);

    obs::EventTracer tracer(1024);
    tracer.setEnabled(true);
    engine.setTracer(&tracer);

    Trace t;
    t.append(MemoryReference{0x000, 0, 4, RefKind::Load});
    t.append(MemoryReference{0x100, 0, 4, RefKind::Load});
    const auto stats = engine.run(t, 100);
    engine.setTracer(nullptr); // restore the global default

    EXPECT_EQ(stats.fills, 2u);
    ASSERT_GT(tracer.size(), 0u);
    bool saw_fill = false, saw_stall = false;
    for (const auto &event : tracer.events()) {
        saw_fill |= std::string_view(event.category) == "fill";
        saw_stall |= std::string_view(event.category) == "stall";
    }
    EXPECT_TRUE(saw_fill);
    EXPECT_TRUE(saw_stall);
    // The trace exports cleanly.
    const std::string json = tracer.toChromeJson();
    EXPECT_NE(json.find("\"fill\""), std::string::npos);
}

TEST(EngineTracing, DisabledTracerCostsNoEvents)
{
    CacheConfig cache;
    cache.sizeBytes = 256;
    cache.assoc = 2;
    cache.lineBytes = 32;
    MemoryConfig mem;
    mem.busWidthBytes = 4;
    mem.cycleTime = 8;
    CpuConfig cpu;
    TimingEngine engine(cache, mem, WriteBufferConfig{0, true},
                        cpu);

    obs::EventTracer tracer(16); // disabled by default
    engine.setTracer(&tracer);
    Trace t;
    t.append(MemoryReference{0x000, 0, 4, RefKind::Load});
    engine.run(t, 10);
    engine.setTracer(nullptr);
    EXPECT_EQ(tracer.recorded(), 0u);
}

// --------------------------------------------------- LatencyHistogram

TEST(LatencyHistogram, EdgesGrowGeometricallyToInfinity)
{
    obs::LatencyHistogram h;
    EXPECT_EQ(obs::LatencyHistogram::kBuckets, 64u);
    EXPECT_DOUBLE_EQ(h.upperEdge(0), 1.0);
    EXPECT_DOUBLE_EQ(h.upperEdge(1), 2.0);
    EXPECT_DOUBLE_EQ(h.upperEdge(6), 64.0);
    EXPECT_DOUBLE_EQ(h.upperEdge(62), 4611686018427387904.0);
    EXPECT_TRUE(std::isinf(h.upperEdge(63)));
}

TEST(LatencyHistogram, CountsSumMinMaxMean)
{
    obs::LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    for (double x : {4.0, 16.0, 10.0})
        h.add(x);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.sum(), 30.0);
    EXPECT_DOUBLE_EQ(h.min(), 4.0);
    EXPECT_DOUBLE_EQ(h.max(), 16.0);
    EXPECT_DOUBLE_EQ(h.mean(), 10.0);
    // NaN is dropped, negatives clamp into the first bucket.
    h.add(std::nan(""));
    EXPECT_EQ(h.count(), 3u);
    h.add(-5.0);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
}

TEST(LatencyHistogram, SamplesLandInTheRightBuckets)
{
    obs::LatencyHistogram h;
    // Bucket 0 = [0, 1], bucket i = (2^(i-1), 2^i].
    h.add(1.0);   // bucket 0 (inclusive upper edge)
    h.add(1.5);   // bucket 1
    h.add(2.0);   // bucket 1
    h.add(2.1);   // bucket 2
    h.add(1e30);  // overflow bucket
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(1), 2u);
    EXPECT_EQ(h.bucketCount(2), 1u);
    EXPECT_EQ(h.bucketCount(63), 1u);
}

TEST(LatencyHistogram, QuantilesInterpolateAndClamp)
{
    obs::LatencyHistogram constant;
    for (int i = 0; i < 100; ++i)
        constant.add(5.0);
    // Every quantile of a constant distribution is the constant:
    // interpolation would smear across the bucket, but the result
    // clamps to the observed [min, max].
    EXPECT_DOUBLE_EQ(constant.quantile(0.01), 5.0);
    EXPECT_DOUBLE_EQ(constant.p50(), 5.0);
    EXPECT_DOUBLE_EQ(constant.p99(), 5.0);

    obs::LatencyHistogram uniform;
    for (int i = 1; i <= 1024; ++i)
        uniform.add(static_cast<double>(i));
    // Log-bucketed quantiles carry at most one bucket (2x) of
    // relative error against the true order statistics.
    EXPECT_GE(uniform.p50(), 512.0 / 2.0);
    EXPECT_LE(uniform.p50(), 512.0 * 2.0);
    EXPECT_GE(uniform.p99(), 1014.0 / 2.0);
    EXPECT_LE(uniform.p99(), 1024.0);
    // Monotone in q, bounded by the observed extremes.
    EXPECT_LE(uniform.quantile(0.0), uniform.p50());
    EXPECT_LE(uniform.p50(), uniform.p95());
    EXPECT_LE(uniform.p95(), uniform.p99());
    EXPECT_LE(uniform.quantile(1.0), 1024.0);
    EXPECT_GE(uniform.quantile(0.0), 1.0);
}

TEST(LatencyHistogram, MergeMatchesInterleavedAdds)
{
    obs::LatencyHistogram a, b, reference;
    for (int i = 0; i < 256; ++i) {
        const double x = static_cast<double>((i * 37) % 500);
        (i % 2 ? a : b).add(x);
        reference.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), reference.count());
    EXPECT_DOUBLE_EQ(a.sum(), reference.sum());
    EXPECT_DOUBLE_EQ(a.min(), reference.min());
    EXPECT_DOUBLE_EQ(a.max(), reference.max());
    for (std::size_t i = 0; i < obs::LatencyHistogram::kBuckets; ++i)
        EXPECT_EQ(a.bucketCount(i), reference.bucketCount(i));
    EXPECT_DOUBLE_EQ(a.p95(), reference.p95());
}

TEST(LatencyHistogram, ConcurrentAddsLoseNothing)
{
    // Integer-valued samples make the double sum exact, so the
    // concurrent result must equal the serial reference bucket
    // for bucket — any lost update or torn read breaks it.
    constexpr int kThreads = 4;
    constexpr int kPerThread = 10000;
    obs::LatencyHistogram concurrent, reference;
    for (int t = 0; t < kThreads; ++t)
        for (int i = 0; i < kPerThread; ++i)
            reference.add(
                static_cast<double>((t * 7919 + i * 31) % 4096));
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([&concurrent, t] {
            for (int i = 0; i < kPerThread; ++i)
                concurrent.add(static_cast<double>(
                    (t * 7919 + i * 31) % 4096));
        });
    }
    for (auto &thread : pool)
        thread.join();
    EXPECT_EQ(concurrent.count(),
              static_cast<std::uint64_t>(kThreads * kPerThread));
    EXPECT_DOUBLE_EQ(concurrent.sum(), reference.sum());
    EXPECT_DOUBLE_EQ(concurrent.min(), reference.min());
    EXPECT_DOUBLE_EQ(concurrent.max(), reference.max());
    for (std::size_t i = 0; i < obs::LatencyHistogram::kBuckets; ++i)
        EXPECT_EQ(concurrent.bucketCount(i),
                  reference.bucketCount(i));
}

TEST(LatencyHistogram, ConcurrentRegistryUpdatesStayConsistent)
{
    // The reference returned by addLatencyHistogram must accept
    // concurrent add()s from many threads (the runner's workers
    // feeding one registered histogram).
    obs::StatRegistry registry;
    obs::LatencyHistogram &h = registry.addLatencyHistogram(
        "lat", obs::LatencyHistogram(), "latencies", "ns");
    constexpr int kThreads = 4;
    constexpr int kPerThread = 5000;
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([&h] {
            for (int i = 0; i < kPerThread; ++i)
                h.add(static_cast<double>(i % 1000));
        });
    }
    for (auto &thread : pool)
        thread.join();
    const obs::StatEntry *entry = registry.find("lat");
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->histogram.count(),
              static_cast<std::uint64_t>(kThreads * kPerThread));
    EXPECT_DOUBLE_EQ(entry->histogram.max(), 999.0);
}

TEST(StatRegistry, HistogramAppearsInTextAndJsonDumps)
{
    obs::StatRegistry registry;
    obs::LatencyHistogram h;
    for (double x : {1.0, 10.0, 100.0})
        h.add(x);
    registry.addLatencyHistogram("runner.point_ns", h,
                                 "per-point latency", "ns");
    EXPECT_DOUBLE_EQ(registry.value("runner.point_ns"), 37.0);

    const std::string text = registry.formatText();
    EXPECT_NE(text.find("runner.point_ns"), std::string::npos);
    EXPECT_NE(text.find("sum=111,"), std::string::npos);
    EXPECT_NE(text.find("p50="), std::string::npos);
    EXPECT_NE(text.find("p99="), std::string::npos);

    const auto parsed = obs::parseJson(registry.toJson());
    ASSERT_TRUE(parsed.ok) << parsed.error;
    const obs::JsonValue stat =
        parsed.value.at("stats").at("runner.point_ns");
    EXPECT_EQ(stat.at("kind").asString(), "histogram");
    EXPECT_DOUBLE_EQ(stat.at("count").asNumber(), 3.0);
    EXPECT_DOUBLE_EQ(stat.at("sum").asNumber(), 111.0);
    EXPECT_GT(stat.at("p99").asNumber(), 0.0);
    const obs::JsonValue *buckets = stat.find("buckets");
    ASSERT_NE(buckets, nullptr);
    ASSERT_TRUE(buckets->isArray());
    EXPECT_EQ(buckets->size(), 3u);  // only occupied buckets
}

TEST(StatRegistry, PrometheusHistogramIsConformant)
{
    obs::StatRegistry registry;
    obs::LatencyHistogram h;
    for (double x : {1.0, 3.0, 500.0})
        h.add(x);
    // The "ns" unit lands in the metric name, per convention.
    registry.addLatencyHistogram("runner.point_latency", h,
                                 "per-point latency", "ns");
    const std::string dump = registry.dumpPrometheus();
    const std::string metric = "uatm_runner_point_latency_ns";

    EXPECT_NE(dump.find("# TYPE " + metric + " histogram"),
              std::string::npos);
    EXPECT_NE(dump.find(metric + "_sum 504"),
              std::string::npos);
    EXPECT_NE(dump.find(metric + "_count 3"),
              std::string::npos);
    // The +Inf bucket closes the series and equals _count.
    EXPECT_NE(dump.find(metric + "_bucket{le=\"+Inf\"} 3"),
              std::string::npos);
    // Buckets are cumulative: the le="4" bucket holds 1 and 3.
    EXPECT_NE(dump.find(metric + "_bucket{le=\"4\"} 2"),
              std::string::npos);
}

// ------------------------------------------------- tracer health stats

TEST(EventTracer, RegisterStatsExposesDropCounters)
{
    obs::EventTracer tracer(4);
    tracer.setEnabled(true);
    for (int i = 0; i < 6; ++i)
        tracer.record("e", "cat", i, 1);
    tracer.setEnabled(false);
    EXPECT_EQ(tracer.recorded(), 6u);
    EXPECT_EQ(tracer.dropped(), 2u);

    obs::StatRegistry registry;
    tracer.registerStats(registry, "tracer");
    EXPECT_DOUBLE_EQ(registry.value("tracer.recorded"), 6.0);
    EXPECT_DOUBLE_EQ(registry.value("tracer.dropped"), 2.0);
    EXPECT_DOUBLE_EQ(registry.value("tracer.capacity"), 4.0);
}

TEST(EventTracer, InternReturnsStablePointers)
{
    obs::EventTracer tracer(4);
    const char *a = tracer.intern("worker 0");
    const char *b = tracer.intern("worker 1");
    const char *again = tracer.intern("worker 0");
    EXPECT_EQ(a, again);  // same text, same pointer
    EXPECT_NE(a, b);
    EXPECT_STREQ(a, "worker 0");
    // Still valid after more interning (node-based storage).
    for (int i = 0; i < 100; ++i)
        tracer.intern("filler " + std::to_string(i));
    EXPECT_STREQ(a, "worker 0");
}

// ------------------------------------------- bench thread metadata

TEST(PerfDiff, ComparableWithoutThreadMetadata)
{
    const auto doc =
        perfdoc::make({{"a", 100.0, 1.0}, {"b", 5.0, 0.1}});
    std::string error;
    EXPECT_TRUE(obs::perfComparable(doc, doc, error)) << error;
}

TEST(PerfDiff, RefusesMismatchedHostCores)
{
    const auto before =
        perfdoc::read("{\"host_cores\": 8, \"benchmarks\": []}");
    const auto after =
        perfdoc::read("{\"host_cores\": 4, \"benchmarks\": []}");
    std::string error;
    EXPECT_FALSE(obs::perfComparable(before, after, error));
    EXPECT_NE(error.find("host_cores"), std::string::npos);
    // Same cores: fine.
    EXPECT_TRUE(obs::perfComparable(before, before, error));
}

TEST(PerfDiff, RefusesMismatchedBenchmarkThreads)
{
    const auto before = perfdoc::read(
        "{\"benchmarks\": [" +
        perfdoc::entry("sweep/t4", ", \"threads_requested\": 4, "
                                   "\"threads_used\": 4") +
        "]}");
    const auto after = perfdoc::read(
        "{\"benchmarks\": [" +
        perfdoc::entry("sweep/t4", ", \"threads_requested\": 4, "
                                   "\"threads_used\": 1") +
        "]}");
    std::string error;
    EXPECT_FALSE(obs::perfComparable(before, after, error));
    EXPECT_NE(error.find("threads_used"), std::string::npos);
    EXPECT_NE(error.find("sweep/t4"), std::string::npos);
}

TEST(PerfDiff, RefusesMismatchedBuilds)
{
    const auto release = perfdoc::read(
        "{\"build_type\": \"Release\", \"compiler\": \"gcc 12.2.0\", "
        "\"benchmarks\": []}");
    const auto debug = perfdoc::read(
        "{\"build_type\": \"Debug\", \"compiler\": \"gcc 12.2.0\", "
        "\"benchmarks\": []}");
    const auto clang = perfdoc::read(
        "{\"build_type\": \"Release\", \"compiler\": \"clang 17\", "
        "\"benchmarks\": []}");
    const auto bare = perfdoc::read("{\"benchmarks\": []}");
    std::string error;
    EXPECT_FALSE(obs::perfSameBuild(release, debug, error));
    EXPECT_NE(error.find("build_type"), std::string::npos);
    EXPECT_FALSE(obs::perfSameBuild(release, clang, error));
    EXPECT_NE(error.find("compiler"), std::string::npos);
    EXPECT_TRUE(obs::perfSameBuild(release, release, error));
    // Records from before the fields existed stay comparable.
    EXPECT_TRUE(obs::perfSameBuild(release, bare, error));
}

TEST(BenchSuite, JsonRecordsBuildCompilerAndCpu)
{
    obs::BenchSuite suite("build_meta");
    suite.add("noop", [](obs::BenchState &state) {
        state.setItems(1);
    });
    obs::BenchSuite::RunOptions options;
    options.reps = 1;
    options.writeJson = false;
    ASSERT_TRUE(suite.run(options).ok());

    const auto parsed = obs::parseJson(suite.toJson());
    ASSERT_TRUE(parsed.ok) << parsed.error;
    for (const char *field : {"build_type", "compiler", "cpu_model"})
        EXPECT_FALSE(parsed.value.at(field).asString().empty())
            << field;
}

TEST(BenchSuite, JsonRecordsHostCoresAndThreads)
{
    obs::BenchSuite suite("threads_meta");
    suite.add("t2", [](obs::BenchState &state) {
        state.setItems(1);
        state.setThreads(2, 2);
    });
    obs::BenchSuite::RunOptions options;
    options.reps = 1;
    options.writeJson = false;
    ASSERT_TRUE(suite.run(options).ok());

    const auto parsed = obs::parseJson(suite.toJson());
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_GT(parsed.value.at("host_cores").asNumber(), 0.0);
    const obs::JsonValue record =
        parsed.value.at("benchmarks").at(0);
    EXPECT_DOUBLE_EQ(record.at("threads_requested").asNumber(), 2.0);
    EXPECT_DOUBLE_EQ(record.at("threads_used").asNumber(), 2.0);
}

TEST(BenchSuite, RecordReadsBackToItsResults)
{
    obs::BenchSuite suite("readback");
    suite.add("work", [](obs::BenchState &state) {
        state.setItems(3);
        state.setThreads(2, 1);
        state.setStatsProvider([](obs::StatRegistry &reg) {
            reg.addScalar("x", 4.0, "");
        });
        std::uint64_t acc = 0;
        for (std::uint64_t i = 0; i < 20000; ++i)
            acc += i * i;
        obs::doNotOptimize(acc);
    });
    obs::BenchSuite::RunOptions options;
    options.reps = 3;
    options.writeJson = false;
    ASSERT_TRUE(suite.run(options).ok());

    const auto record = obs::BenchRecord::fromJson(suite.toJson());
    ASSERT_TRUE(record.ok()) << record.status().toString();
    EXPECT_EQ(record.value().hostCores,
              std::thread::hardware_concurrency());
    EXPECT_FALSE(record.value().buildType.empty());
    EXPECT_FALSE(record.value().compiler.empty());

    // Equal to the precision the writer renders doubles with.
    const auto rendered = [](double v) {
        return obs::JsonWriter::formatNumber(v);
    };
    ASSERT_EQ(record.value().benchmarks.size(), 1u);
    const obs::BenchResult &back = record.value().benchmarks[0];
    const obs::BenchResult &ran = suite.results()[0];
    EXPECT_EQ(back.name, ran.name);
    EXPECT_EQ(back.reps, ran.reps);
    EXPECT_EQ(back.warmupReps, ran.warmupReps);
    EXPECT_EQ(back.itemsPerRep, ran.itemsPerRep);
    EXPECT_EQ(rendered(back.nsPerRepMin), rendered(ran.nsPerRepMin));
    EXPECT_EQ(rendered(back.nsPerRepMedian),
              rendered(ran.nsPerRepMedian));
    EXPECT_EQ(rendered(back.nsPerRepMad), rendered(ran.nsPerRepMad));
    EXPECT_TRUE(back.hasThreads);
    EXPECT_EQ(back.threadsRequested, 2u);
    EXPECT_EQ(back.threadsUsed, 1u);
    ASSERT_EQ(back.statDelta.size(), ran.statDelta.size());
    for (std::size_t i = 0; i < back.statDelta.size(); ++i) {
        EXPECT_EQ(back.statDelta[i].first, ran.statDelta[i].first);
        EXPECT_EQ(rendered(back.statDelta[i].second),
                  rendered(ran.statDelta[i].second));
    }
    EXPECT_EQ(back.counters.available, ran.counters.available);
    EXPECT_EQ(back.counters.mask, ran.counters.mask);
    for (std::size_t i = 0; i < obs::kPerfEventCount; ++i)
        EXPECT_EQ(rendered(back.counters.value[i]),
                  rendered(ran.counters.value[i]));
}

} // namespace
} // namespace uatm
