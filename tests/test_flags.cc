/**
 * @file
 * Unit tests for the flag reader (obs/flags): binding, the argv
 * syntax, --help, and values read by the JSON reader's rules.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "expect_status.hh"
#include "obs/flags.hh"

namespace uatm {
namespace {

/** parse() over a brace list of arguments after the program name. */
Status
parse(obs::Flags &flags, std::vector<const char *> args,
      bool *helped = nullptr)
{
    args.insert(args.begin(), "prog");
    return flags.parse(static_cast<int>(args.size()), args.data(),
                       helped);
}

TEST(Flags, ReadsTypedValues)
{
    std::uint64_t count = 5;
    double ratio = 0.5;
    std::string name = "x";
    bool verbose = false;
    obs::Flags flags("prog");
    flags.add("count", count, "a count");
    flags.add("ratio", ratio, "a ratio");
    flags.add("name", name, "a name");
    flags.add("verbose", verbose, "a flag");
    ASSERT_TRUE(parse(flags, {"--count", "7", "--ratio=0.25", "--verbose"})
                    .ok());
    EXPECT_EQ(count, 7u);
    EXPECT_DOUBLE_EQ(ratio, 0.25);
    EXPECT_EQ(name, "x");
    EXPECT_TRUE(verbose);
}

TEST(Flags, DefaultsSurviveEmptyArgv)
{
    unsigned n = 42;
    bool fast = false;
    obs::Flags flags("prog");
    flags.add("n", n, "n");
    flags.add("fast", fast, "fast");
    bool helped = true;
    ASSERT_TRUE(parse(flags, {}, &helped).ok());
    EXPECT_FALSE(helped);
    EXPECT_EQ(n, 42u);
    EXPECT_FALSE(fast);
}

TEST(Flags, AcceptsBothSpellingsAndBoolsAsTrueOrFalse)
{
    unsigned n = 1;
    bool fast = false;
    bool slow = true;
    obs::Flags flags("prog");
    flags.add("n", n, "n");
    flags.add("fast", fast, "fast");
    flags.add("slow", slow, "slow");
    ASSERT_TRUE(parse(flags, {"--n=42", "--fast", "--slow=false"}).ok());
    EXPECT_EQ(n, 42u);
    EXPECT_TRUE(fast);
    EXPECT_FALSE(slow);
}

TEST(Flags, HelpPrintsUsageAndStaysOk)
{
    unsigned n = 1;
    obs::Flags flags("prog", "desc");
    flags.add("n", n, "n");
    for (const char *help : {"--help", "-h"}) {
        bool helped = false;
        testing::internal::CaptureStdout();
        EXPECT_TRUE(parse(flags, {help, "--bogus"}, &helped).ok());
        EXPECT_EQ(testing::internal::GetCapturedStdout(), flags.usage());
        EXPECT_TRUE(helped) << help;
    }
}

TEST(Flags, UsageShowsEveryFlagAndItsDefault)
{
    std::uint64_t alpha = 1;
    double ratio = 0.95;
    std::string out;
    bool fast = false;
    std::vector<std::string> gates;
    std::vector<std::string> files;
    obs::Flags flags("prog", "What it does.");
    flags.add("alpha", alpha, "the alpha value");
    flags.add("ratio", ratio, "a ratio");
    flags.add("out", out, "where");
    flags.add("fast", fast, "go fast");
    flags.add("gate", gates, "a gate (repeatable)");
    flags.operands(files, "<in.json>...");
    EXPECT_EQ(flags.usage(),
              "usage: prog [options] <in.json>...\n"
              "What it does.\n"
              "\n"
              "options:\n"
              "  --alpha <value>\n"
              "      the alpha value (default: 1)\n"
              "  --ratio <value>\n"
              "      a ratio (default: 0.95)\n"
              "  --out <value>\n"
              "      where (default: )\n"
              "  --fast\n"
              "      go fast\n"
              "  --gate <value>\n"
              "      a gate (repeatable)\n");
}

TEST(Flags, UnknownOptionIsInvalidArgument)
{
    obs::Flags flags("prog");
    const Status status = parse(flags, {"--bogus=1"});
    EXPECT_TRUE(isStatus(status, ErrorCode::InvalidArgument,
                         "prog: unknown option '--bogus' (try --help)"));
}

TEST(Flags, MissingValueIsInvalidArgument)
{
    unsigned n = 1;
    obs::Flags flags("prog");
    flags.add("n", n, "n");
    EXPECT_TRUE(isStatus(parse(flags, {"--n"}), ErrorCode::InvalidArgument,
                         "prog: option '--n' needs a value"));
}

TEST(Flags, RejectsRepeatedOptionsButListsMayRepeat)
{
    // Repetition is ambiguous — neither first- nor last-wins is
    // obviously right — so both spellings are typed errors, not
    // silent overwrites.  A list flag collects every value instead.
    unsigned n = 1;
    bool fast = false;
    std::vector<std::string> gates;
    obs::Flags flags("prog");
    flags.add("n", n, "n");
    flags.add("fast", fast, "fast");
    flags.add("gate", gates, "gate");
    EXPECT_TRUE(isStatus(parse(flags, {"--n=1", "--n", "2"}),
                         ErrorCode::InvalidArgument, "more than once"));

    obs::Flags again("prog");
    again.add("fast", fast, "fast");
    EXPECT_TRUE(isStatus(parse(again, {"--fast", "--fast"}),
                         ErrorCode::InvalidArgument, "more than once"));

    obs::Flags list("prog");
    list.add("gate", gates, "gate");
    ASSERT_TRUE(parse(list, {"--gate=a:b:2", "--gate", "c:d:3"}).ok());
    EXPECT_EQ(gates, (std::vector<std::string>{"a:b:2", "c:d:3"}));
}

TEST(Flags, RejectsEmptyEqualsValue)
{
    // "--name=" is indistinguishable from a typo; omitting the
    // option is how you ask for the default.
    std::string out = "default";
    obs::Flags flags("prog");
    flags.add("out", out, "out");
    EXPECT_TRUE(isStatus(parse(flags, {"--out="}),
                         ErrorCode::InvalidArgument, "empty value"));
    EXPECT_EQ(out, "default");
}

TEST(Flags, PositionalArgumentsNeedOperands)
{
    unsigned n = 1;
    obs::Flags flags("prog");
    flags.add("n", n, "n");
    EXPECT_TRUE(isStatus(parse(flags, {"stray"}), ErrorCode::InvalidArgument,
                         "prog: unexpected positional argument 'stray'"));

    std::vector<std::string> files;
    obs::Flags tool("prog");
    tool.add("n", n, "n");
    tool.operands(files, "<file>...");
    ASSERT_TRUE(parse(tool, {"a.json", "--n", "3", "b.json"}).ok());
    EXPECT_EQ(files, (std::vector<std::string>{"a.json", "b.json"}));
    EXPECT_EQ(n, 3u);
}

TEST(Flags, ErrorsNameTheProgramTheFlagAndTheValue)
{
    std::uint32_t line = 32;
    double alpha = 0.5;
    obs::Flags flags("design_space_explorer");
    flags.add("line", line, "line");
    flags.add("alpha", alpha, "alpha");
    EXPECT_EQ(parse(flags, {"--line", "4294967328"}).message(),
              "design_space_explorer: --line must be an integer in "
              "[0, 4294967295] (got 4294967328)");
    EXPECT_EQ(parse(flags, {"--alpha=nan"}).message(),
              "design_space_explorer: --alpha must be a number "
              "(got \"nan\")");
    EXPECT_EQ(line, 32u);
}

TEST(Flags, IntegersFollowTheJsonRule)
{
    std::uint64_t n = 0;
    const auto read = [&n](const char *text) {
        obs::Flags flags("prog");
        flags.add("n", n, "n");
        return parse(flags, {"--n", text});
    };
    // Exact over the whole range, and 1e6 is an integer.
    ASSERT_TRUE(read("18446744073709551615").ok());
    EXPECT_EQ(n, 18446744073709551615u);
    ASSERT_TRUE(read("9007199254740993").ok());
    EXPECT_EQ(n, 9007199254740993u);
    ASSERT_TRUE(read("1e6").ok());
    EXPECT_EQ(n, 1000000u);
    // Overflow, a fraction, a sign and non-numbers are refused.
    for (const char *bad : {"18446744073709551616", "99999999999999999999",
                            "10.5", "-1", "+8", "12abc", "0x10", "true"}) {
        EXPECT_TRUE(isStatus(read(bad), ErrorCode::ParseError,
                             "prog: --n must be an integer in "
                             "[0, 18446744073709551615]"))
            << bad;
    }
}

TEST(Flags, IntegerRangeComesFromTheBinding)
{
    std::uint64_t refs = 100;
    obs::Flags flags("prog");
    flags.add("refs", refs, "refs", 1);
    EXPECT_TRUE(isStatus(parse(flags, {"--refs", "0"}), ErrorCode::ParseError,
                         "prog: --refs must be an integer in "
                         "[1, 18446744073709551615] (got 0)"));
    EXPECT_EQ(refs, 100u);
}

TEST(Flags, NumbersFollowTheJsonRule)
{
    double x = 0.0;
    const auto read = [&x](const char *text) {
        obs::Flags flags("prog");
        flags.add("x", x, "x");
        return parse(flags, {"--x", text});
    };
    ASSERT_TRUE(read("1e-320").ok());
    EXPECT_GT(x, 0.0);
    ASSERT_TRUE(read("-2.5").ok());
    EXPECT_EQ(x, -2.5);
    // No NaN, infinity or overflow, and no "+8" or ".95".
    for (const char *bad : {"nan", "inf", "-inf", "1e999", "+8", ".95",
                            "1.", "abc"}) {
        EXPECT_TRUE(isStatus(read(bad), ErrorCode::ParseError,
                             "prog: --x must be a number (got \""))
            << bad;
    }
}

TEST(Flags, BoolTakesOnlyTrueOrFalse)
{
    bool fast = false;
    for (const char *bad : {"--fast=maybe", "--fast=yes", "--fast=1",
                            "--fast=TRUE"}) {
        obs::Flags flags("prog");
        flags.add("fast", fast, "go fast");
        EXPECT_TRUE(isStatus(parse(flags, {bad}), ErrorCode::ParseError,
                             "prog: --fast must be a bool"))
            << bad;
    }
    EXPECT_FALSE(fast);
}

TEST(Flags, StringTakesTheTextAsTyped)
{
    std::string workload;
    obs::Flags flags("prog");
    flags.add("workload", workload, "workload");
    ASSERT_TRUE(parse(flags, {"--workload", "ycsb-a:theta=0.9,n=007"}).ok());
    EXPECT_EQ(workload, "ycsb-a:theta=0.9,n=007");
}

} // namespace
} // namespace uatm
