/**
 * @file
 * Unit tests for the util substrate: PRNG, statistics, tables,
 * charts, the checked file writer and the option parser.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>

#include "util/ascii_chart.hh"
#include "util/file.hh"
#include "util/logging.hh"
#include "util/options.hh"
#include "util/random.hh"
#include "util/stats.hh"
#include "util/status.hh"
#include "util/table.hh"

namespace uatm {
namespace {

// ---------------------------------------------------------------- Rng

TEST(Rng, DeterministicFromSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a() == b();
    EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextBelow(13), 13u);
}

TEST(Rng, NextBelowCoversAllResidues)
{
    Rng rng(11);
    std::map<std::uint64_t, int> seen;
    for (int i = 0; i < 5000; ++i)
        ++seen[rng.nextBelow(7)];
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextInRangeInclusiveBounds)
{
    Rng rng(3);
    bool hit_lo = false, hit_hi = false;
    for (int i = 0; i < 20000; ++i) {
        const auto v = rng.nextInRange(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        hit_lo |= v == -2;
        hit_hi |= v == 2;
    }
    EXPECT_TRUE(hit_lo);
    EXPECT_TRUE(hit_hi);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(5);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double u = rng.nextDouble();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, NextBoolMatchesProbability)
{
    Rng rng(9);
    int hits = 0;
    const int n = 40000;
    for (int i = 0; i < n; ++i)
        hits += rng.nextBool(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, StackDistanceFavoursTop)
{
    Rng rng(13);
    const StackDistanceSampler depth(16, 0.7);
    std::vector<int> counts(16, 0);
    for (int i = 0; i < 40000; ++i)
        ++counts[depth(rng)];
    // Geometric decay: index 0 strictly dominates index 4.
    EXPECT_GT(counts[0], counts[4]);
    EXPECT_GT(counts[1], counts[8]);
}

TEST(Rng, StackDistanceWithinBound)
{
    Rng rng(17);
    const StackDistanceSampler depth(5, 0.99);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(depth(rng), 5u);
}

TEST(Rng, WeightedRespectsWeights)
{
    Rng rng(21);
    std::vector<double> w = {1.0, 0.0, 3.0};
    std::vector<int> counts(3, 0);
    for (int i = 0; i < 40000; ++i)
        ++counts[rng.nextWeighted(w)];
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.3);
}

TEST(Rng, ForkedStreamsAreIndependent)
{
    Rng parent(31);
    Rng child = parent.fork();
    // The child should not replay the parent's stream.
    Rng parent2(31);
    parent2.fork();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += child() == parent();
    EXPECT_LT(same, 2);
}

// -------------------------------------------------------- RunningStats

TEST(RunningStats, EmptyIsZero)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, KnownMoments)
{
    RunningStats s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeEqualsCombined)
{
    RunningStats a, b, all;
    for (int i = 0; i < 50; ++i) {
        const double v = std::sin(i) * 10.0;
        (i % 2 ? a : b).add(v);
        all.add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeIntoEmpty)
{
    RunningStats a, b;
    b.add(1.0);
    b.add(3.0);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
}

TEST(RunningStats, MergeEmptyIntoEmpty)
{
    RunningStats a, b;
    a.merge(b);
    EXPECT_EQ(a.count(), 0u);
    EXPECT_EQ(a.mean(), 0.0);
    EXPECT_EQ(a.stddev(), 0.0);
}

TEST(RunningStats, MergeEmptyIntoPopulatedIsNoOp)
{
    RunningStats a, empty;
    a.add(2.0);
    a.add(6.0);
    a.merge(empty);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.mean(), 4.0);
    EXPECT_DOUBLE_EQ(a.variance(), 4.0);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 6.0);
}

TEST(RunningStats, MergePropagatesMinMaxBothDirections)
{
    RunningStats lo, hi;
    lo.add(-5.0);
    lo.add(0.0);
    hi.add(3.0);
    hi.add(42.0);

    RunningStats a = lo;
    a.merge(hi); // other side holds the max
    EXPECT_DOUBLE_EQ(a.min(), -5.0);
    EXPECT_DOUBLE_EQ(a.max(), 42.0);

    RunningStats b = hi;
    b.merge(lo); // other side holds the min
    EXPECT_DOUBLE_EQ(b.min(), -5.0);
    EXPECT_DOUBLE_EQ(b.max(), 42.0);
    EXPECT_EQ(b.count(), 4u);
    EXPECT_DOUBLE_EQ(b.mean(), 10.0);
}

TEST(RunningStats, ResetReturnsToEmpty)
{
    RunningStats s;
    s.add(7.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    RunningStats other;
    other.add(1.0);
    s.merge(other); // merging after reset behaves like fresh
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 1.0);
}

// ------------------------------------------------------------- TextTable

TEST(TextTable, RendersAlignedColumns)
{
    TextTable t({"a", "longheader"});
    t.addRow({"1", "2"});
    const std::string out = t.render();
    EXPECT_NE(out.find("a"), std::string::npos);
    EXPECT_NE(out.find("longheader"), std::string::npos);
    EXPECT_NE(out.find("---"), std::string::npos);
    EXPECT_EQ(t.rows(), 1u);
}

TEST(TextTable, NumFormatsPrecision)
{
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

TEST(TextTable, CsvHasNoPadding)
{
    TextTable t({"x", "y"});
    t.addRow({"1", "22"});
    EXPECT_EQ(t.renderCsv(), "x,y\n1,22\n");
}

// ------------------------------------------------------------ AsciiChart

TEST(AsciiChart, RendersSeriesAndLegend)
{
    AsciiChart chart(40, 10);
    chart.setTitle("test chart");
    chart.addSeries(ChartSeries{"up", '*', {0, 1, 2}, {0, 1, 2}});
    const std::string out = chart.render();
    EXPECT_NE(out.find("test chart"), std::string::npos);
    EXPECT_NE(out.find("[*] up"), std::string::npos);
    EXPECT_NE(out.find('*'), std::string::npos);
}

TEST(AsciiChart, EmptyChartDoesNotCrash)
{
    AsciiChart chart;
    EXPECT_NE(chart.render().find("empty"), std::string::npos);
}

// ----------------------------------------------------------- OptionParser

TEST(OptionParser, ParsesTypedOptions)
{
    OptionParser p("prog");
    p.addInt("count", 5, "a count");
    p.addDouble("ratio", 0.5, "a ratio");
    p.addString("name", "x", "a name");
    p.addFlag("verbose", "a flag");

    const char *argv[] = {"prog", "--count", "7", "--ratio=0.25",
                          "--verbose"};
    ASSERT_TRUE(p.parse(5, argv));
    EXPECT_EQ(p.getInt("count"), 7);
    EXPECT_DOUBLE_EQ(p.getDouble("ratio"), 0.25);
    EXPECT_EQ(p.getString("name"), "x");
    EXPECT_TRUE(p.getFlag("verbose"));
}

TEST(OptionParser, DefaultsSurviveEmptyArgv)
{
    OptionParser p("prog");
    p.addInt("n", 42, "n");
    const char *argv[] = {"prog"};
    ASSERT_TRUE(p.parse(1, argv));
    EXPECT_EQ(p.getInt("n"), 42);
}

TEST(OptionParser, HelpReturnsFalse)
{
    OptionParser p("prog", "desc");
    p.addInt("n", 1, "n");
    const char *argv[] = {"prog", "--help"};
    EXPECT_FALSE(p.parse(2, argv));
}

TEST(OptionParser, UsageMentionsEveryOption)
{
    OptionParser p("prog");
    p.addInt("alpha", 1, "the alpha value");
    p.addFlag("fast", "go fast");
    const std::string usage = p.usage();
    EXPECT_NE(usage.find("--alpha"), std::string::npos);
    EXPECT_NE(usage.find("--fast"), std::string::npos);
    EXPECT_NE(usage.find("the alpha value"), std::string::npos);
}

// ----------------------------------------------- parseKeyValueList

TEST(ParseKeyValueList, EmptyStringIsAnEmptyList)
{
    const auto pairs = parseKeyValueList("");
    ASSERT_TRUE(pairs.ok());
    EXPECT_TRUE(pairs.value().empty());
}

TEST(ParseKeyValueList, SplitsPairsInOrder)
{
    const auto pairs =
        parseKeyValueList("theta=0.99,records=1e6,dist=uniform");
    ASSERT_TRUE(pairs.ok());
    const std::vector<KeyValue> expected = {
        {"theta", "0.99"}, {"records", "1e6"}, {"dist", "uniform"}};
    EXPECT_EQ(pairs.value(), expected);
}

TEST(ParseKeyValueList, ValuesMayBeEmptyAndContainEquals)
{
    const auto pairs = parseKeyValueList("a=,b=x=y");
    ASSERT_TRUE(pairs.ok());
    const std::vector<KeyValue> expected = {{"a", ""},
                                            {"b", "x=y"}};
    EXPECT_EQ(pairs.value(), expected);
}

TEST(ParseKeyValueList, MalformedListsAreParseErrors)
{
    for (const char *bad :
         {"novalue", "=1", "a=1,,b=2", "a=1,", ",a=1"}) {
        const auto pairs = parseKeyValueList(bad);
        ASSERT_FALSE(pairs.ok()) << bad;
        EXPECT_EQ(pairs.status().code(), ErrorCode::ParseError)
            << bad;
    }
}

TEST(OptionParser, GetKeyValueListParsesStringOptions)
{
    OptionParser p("prog");
    p.addString("params", "a=1,b=two", "kv list");
    const char *argv[] = {"prog"};
    ASSERT_TRUE(p.parse(1, argv));
    const auto pairs = p.getKeyValueList("params");
    ASSERT_TRUE(pairs.ok());
    ASSERT_EQ(pairs.value().size(), 2u);
    EXPECT_EQ(pairs.value()[0].key, "a");
    EXPECT_EQ(pairs.value()[1].value, "two");
}

TEST(OptionParser, GetKeyValueListReportsFormatErrors)
{
    OptionParser p("prog");
    p.addString("params", "", "kv list");
    const char *argv[] = {"prog", "--params", "oops"};
    ASSERT_TRUE(p.parse(3, argv));
    const auto pairs = p.getKeyValueList("params");
    ASSERT_FALSE(pairs.ok());
    EXPECT_EQ(pairs.status().code(), ErrorCode::ParseError);
}

// ------------------------------------- OptionParser, negative paths

TEST(OptionParser, FlagAcceptsSpelledOutBooleans)
{
    OptionParser p("prog");
    p.addFlag("a", "a");
    p.addFlag("b", "b");
    p.addFlag("c", "c");
    const char *argv[] = {"prog", "--a=TRUE", "--b=Yes", "--c=0"};
    ASSERT_TRUE(p.parse(4, argv));
    EXPECT_TRUE(p.getFlag("a"));
    EXPECT_TRUE(p.getFlag("b"));
    EXPECT_FALSE(p.getFlag("c"));
}

TEST(OptionParser, BadFlagValueIsFatal)
{
    OptionParser p("prog");
    p.addFlag("fast", "go fast");
    const char *argv[] = {"prog", "--fast=maybe"};
    ASSERT_TRUE(p.parse(2, argv));
    EXPECT_EXIT({ p.getFlag("fast"); },
                ::testing::ExitedWithCode(EXIT_FAILURE),
                "bad flag value");
}

TEST(OptionParser, IntOverflowIsFatal)
{
    OptionParser p("prog");
    p.addInt("n", 0, "n");
    const char *argv[] = {"prog", "--n=99999999999999999999"};
    ASSERT_TRUE(p.parse(2, argv));
    EXPECT_EXIT({ p.getInt("n"); },
                ::testing::ExitedWithCode(EXIT_FAILURE),
                "overflows");
}

TEST(OptionParser, NonNumericIntIsFatal)
{
    OptionParser p("prog");
    p.addInt("n", 0, "n");
    const char *argv[] = {"prog", "--n=12abc"};
    ASSERT_TRUE(p.parse(2, argv));
    EXPECT_EXIT({ p.getInt("n"); },
                ::testing::ExitedWithCode(EXIT_FAILURE),
                "not an integer");
}

TEST(OptionParser, DoubleOverflowIsFatal)
{
    OptionParser p("prog");
    p.addDouble("x", 0.0, "x");
    const char *argv[] = {"prog", "--x=1e999"};
    ASSERT_TRUE(p.parse(2, argv));
    EXPECT_EXIT({ p.getDouble("x"); },
                ::testing::ExitedWithCode(EXIT_FAILURE),
                "overflows");
}

TEST(OptionParser, MissingValueIsFatal)
{
    OptionParser p("prog");
    p.addInt("n", 0, "n");
    const char *argv[] = {"prog", "--n"};
    EXPECT_EXIT({ p.parse(2, argv); },
                ::testing::ExitedWithCode(EXIT_FAILURE),
                "needs a value");
}

TEST(OptionParser, UnknownOptionIsFatal)
{
    OptionParser p("prog");
    const char *argv[] = {"prog", "--bogus"};
    EXPECT_EXIT({ p.parse(2, argv); },
                ::testing::ExitedWithCode(EXIT_FAILURE),
                "unknown option");
}

// ------------------------------------ OptionParser::tryParse, typed

TEST(OptionParser, TryParseAcceptsValidArgv)
{
    OptionParser p("prog");
    p.addInt("n", 1, "n");
    p.addFlag("fast", "fast");
    const char *argv[] = {"prog", "--n=42", "--fast"};
    bool helped = true;
    EXPECT_TRUE(p.tryParse(3, argv, &helped).ok());
    EXPECT_FALSE(helped);
    EXPECT_EQ(p.getInt("n"), 42);
    EXPECT_TRUE(p.getFlag("fast"));
}

TEST(OptionParser, TryParseHelpSetsFlagAndStaysOk)
{
    OptionParser p("prog");
    p.addInt("n", 1, "n");
    const char *argv[] = {"prog", "--help"};
    bool helped = false;
    EXPECT_TRUE(p.tryParse(2, argv, &helped).ok());
    EXPECT_TRUE(helped);
}

TEST(OptionParser, TryParseRejectsRepeatedOption)
{
    // Repetition is ambiguous — neither first- nor last-wins is
    // obviously right — so both spellings are typed errors, not
    // silent overwrites.
    OptionParser p("prog");
    p.addInt("n", 1, "n");
    const char *argv[] = {"prog", "--n=1", "--n=2"};
    const Status status = p.tryParse(3, argv);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), ErrorCode::InvalidArgument);
    EXPECT_NE(status.message().find("more than once"),
              std::string::npos);
}

TEST(OptionParser, TryParseRejectsRepeatedFlag)
{
    OptionParser p("prog");
    p.addFlag("fast", "fast");
    const char *argv[] = {"prog", "--fast", "--fast"};
    const Status status = p.tryParse(3, argv);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), ErrorCode::InvalidArgument);
}

TEST(OptionParser, TryParseRejectsEmptyEqualsValue)
{
    // "--name=" is indistinguishable from a typo; omitting the
    // option is how you ask for the default.
    OptionParser p("prog");
    p.addString("out", "default", "out");
    const char *argv[] = {"prog", "--out="};
    const Status status = p.tryParse(2, argv);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), ErrorCode::InvalidArgument);
    EXPECT_NE(status.message().find("empty value"),
              std::string::npos);
}

TEST(OptionParser, TryParseRejectsUnknownAndPositional)
{
    OptionParser p("prog");
    p.addInt("n", 1, "n");
    {
        const char *argv[] = {"prog", "--bogus"};
        const Status status = p.tryParse(2, argv);
        ASSERT_FALSE(status.ok());
        EXPECT_EQ(status.code(), ErrorCode::InvalidArgument);
    }
    {
        OptionParser q("prog");
        q.addInt("n", 1, "n");
        const char *argv[] = {"prog", "stray"};
        const Status status = q.tryParse(2, argv);
        ASSERT_FALSE(status.ok());
        EXPECT_EQ(status.code(), ErrorCode::InvalidArgument);
    }
}

TEST(OptionParser, TryParseRejectsMissingValue)
{
    OptionParser p("prog");
    p.addInt("n", 1, "n");
    const char *argv[] = {"prog", "--n"};
    const Status status = p.tryParse(2, argv);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), ErrorCode::InvalidArgument);
}

// ------------------------------------------------- Status, Expected

TEST(Status, DefaultIsOk)
{
    const Status status;
    EXPECT_TRUE(status.ok());
    EXPECT_EQ(status.code(), ErrorCode::Ok);
    EXPECT_EQ(status.toString(), "ok");
}

TEST(Status, ErrorCarriesCodeAndFoldedMessage)
{
    const Status status =
        Status::invalidArgument("bad size ", 42, " for axis");
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(status.code(), ErrorCode::InvalidArgument);
    EXPECT_EQ(status.message(), "bad size 42 for axis");
    EXPECT_EQ(status.toString(),
              "invalid_argument: bad size 42 for axis");
}

TEST(Status, EveryCodeHasAName)
{
    EXPECT_STREQ(errorCodeName(ErrorCode::Ok), "ok");
    EXPECT_STREQ(errorCodeName(ErrorCode::InvalidArgument),
                 "invalid_argument");
    EXPECT_STREQ(errorCodeName(ErrorCode::ParseError),
                 "parse_error");
    EXPECT_STREQ(errorCodeName(ErrorCode::IoError), "io_error");
    EXPECT_STREQ(errorCodeName(ErrorCode::NotFound), "not_found");
    EXPECT_STREQ(errorCodeName(ErrorCode::OutOfRange),
                 "out_of_range");
    EXPECT_STREQ(errorCodeName(ErrorCode::KernelError),
                 "kernel_error");
    EXPECT_STREQ(errorCodeName(ErrorCode::Unavailable),
                 "unavailable");
}

TEST(Expected, HoldsValueOrStatus)
{
    const Expected<int> good = 7;
    EXPECT_TRUE(good.ok());
    EXPECT_EQ(good.value(), 7);
    EXPECT_EQ(good.valueOr(0), 7);

    const Expected<int> bad = Status::notFound("no such thing");
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), ErrorCode::NotFound);
    EXPECT_EQ(bad.valueOr(-1), -1);
}

TEST(Expected, MoveOnlyValuesUnwrap)
{
    Expected<std::unique_ptr<int>> e =
        std::make_unique<int>(5);
    auto p = okOrThrow(std::move(e));
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, 5);
}

TEST(Expected, OkOrThrowRaisesStatusError)
{
    const Status status = Status::parseError("bad line");
    EXPECT_THROW(okOrThrow(status), StatusError);
    try {
        okOrThrow(Expected<int>(Status::ioError("disk gone")));
        FAIL() << "expected StatusError";
    } catch (const StatusError &e) {
        EXPECT_EQ(e.status().code(), ErrorCode::IoError);
        EXPECT_NE(std::string(e.what()).find("disk gone"),
                  std::string::npos);
    }
}

TEST(Expected, ValueOnErrorIsACallerBug)
{
    const Expected<int> bad = Status::notFound("gone");
    EXPECT_DEATH({ bad.value(); }, "Expected::value");
}

// -------------------------------------------------------- writeWholeFile

TEST(WriteWholeFile, FullDeviceIsIoErrorNamingThePath)
{
    // /dev/full opens, and every flush of it fails with ENOSPC: the
    // failure shows only when the buffered bytes leave at close.
    const Status status = writeWholeFile(
        "/dev/full", [](std::ostream &out) { out << "a few bytes\n"; });
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), ErrorCode::IoError);
    EXPECT_NE(status.message().find("'/dev/full'"), std::string::npos)
        << status.message();
}

TEST(WriteWholeFile, UnopenablePathIsIoErrorAndWritesNothing)
{
    const std::string path =
        ::testing::TempDir() + "uatm_no_such_dir/out.txt";
    bool called = false;
    const Status status = writeWholeFile(
        path, [&called](std::ostream &) { called = true; });
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), ErrorCode::IoError);
    EXPECT_NE(status.message().find("cannot open '" + path + "'"),
              std::string::npos)
        << status.message();
    EXPECT_FALSE(called);
}

TEST(WriteWholeFile, ReplacesWhatTheFileHeld)
{
    const std::string path =
        ::testing::TempDir() + "uatm_write_whole_file.bin";
    ASSERT_TRUE(writeWholeFile(path, [](std::ostream &out) {
                    out << "a longer first body\n";
                }).ok());
    ASSERT_TRUE(writeWholeFile(
                    path,
                    [](std::ostream &out) {
                        out.write("x\r\n\0y", 5);
                    },
                    true)
                    .ok());
    std::ifstream in(path, std::ios::binary);
    std::ostringstream body;
    body << in.rdbuf();
    EXPECT_EQ(body.str(), std::string("x\r\n\0y", 5));
    std::remove(path.c_str());
}

// --------------------------------------------------------------- Logging

TEST(Logging, LevelNamesRoundTrip)
{
    for (LogLevel level :
         {LogLevel::Quiet, LogLevel::Warn, LogLevel::Inform}) {
        EXPECT_EQ(logLevelFromString(logLevelName(level)), level);
    }
    EXPECT_EQ(logLevelFromString("info"), LogLevel::Inform);
    EXPECT_EQ(logLevelFromString("nonsense", LogLevel::Warn),
              LogLevel::Warn);
    // No message logs below inform, so there is no debug level.
    EXPECT_EQ(logLevelFromString("debug", LogLevel::Warn),
              LogLevel::Warn);
}

TEST(Logging, SetLevelFiltersLowerSeverities)
{
    const LogLevel was = logLevel();
    setLogLevel(LogLevel::Warn);
    EXPECT_TRUE(detail::levelEnabled(LogLevel::Warn));
    EXPECT_FALSE(detail::levelEnabled(LogLevel::Inform));
    setLogLevel(LogLevel::Inform);
    EXPECT_TRUE(detail::levelEnabled(LogLevel::Inform));
    setLogLevel(LogLevel::Quiet);
    EXPECT_FALSE(detail::levelEnabled(LogLevel::Warn));
    setLogLevel(was);
}

TEST(Logging, TimestampToggle)
{
    const bool was = logTimestamps();
    setLogTimestamps(true);
    EXPECT_TRUE(logTimestamps());
    setLogTimestamps(false);
    EXPECT_FALSE(logTimestamps());
    setLogTimestamps(was);
}

} // namespace
} // namespace uatm
