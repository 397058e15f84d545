/**
 * @file
 * Unit tests for the util substrate: PRNG, tables, charts, Status
 * and the checked file writer.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>

#include "util/ascii_chart.hh"
#include "util/file.hh"
#include "util/logging.hh"
#include "util/random.hh"
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

/** One case per environment switch the programs read. */
class EnvSwitch : public ::testing::TestWithParam<const char *>
{
};

TEST_P(EnvSwitch, OnlyOneTurnsItOn)
{
    const char *name = GetParam();
    const char *saved = std::getenv(name);
    const std::string restore = saved ? saved : "";

    unsetenv(name);
    EXPECT_FALSE(envSwitch(name));
    for (const char *off : {"", "0"}) {
        setenv(name, off, 1);
        EXPECT_FALSE(envSwitch(name)) << '"' << off << '"';
    }
    setenv(name, "1", 1);
    EXPECT_TRUE(envSwitch(name));

    // Any other value leaves it off, warning once per process,
    // naming the variable and the value.
    setenv(name, "false", 1);
    testing::internal::CaptureStderr();
    EXPECT_FALSE(envSwitch(name));
    EXPECT_FALSE(envSwitch(name));
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              std::string("uatm: warn: ") + name +
                  " must be 1 or 0 (got \"false\"); leaving it off\n");

    if (saved)
        setenv(name, restore.c_str(), 1);
    else
        unsetenv(name);
}

INSTANTIATE_TEST_SUITE_P(Variables, EnvSwitch,
                         ::testing::Values("UATM_PROFILE", "UATM_PERF",
                                           "UATM_LOG_TIMESTAMPS"));

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
