/**
 * @file
 * Unit tests for the trace substrate: reference records, the trace
 * container, source adaptors, file formats and the profiler.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "trace/io.hh"
#include "trace/ref.hh"
#include "trace/source.hh"
#include "trace/trace_stats.hh"

namespace uatm {
namespace {

MemoryReference
makeRef(RefKind kind, Addr addr, std::uint8_t size = 4,
        std::uint32_t gap = 0)
{
    MemoryReference ref;
    ref.kind = kind;
    ref.addr = addr;
    ref.size = size;
    ref.gap = gap;
    return ref;
}

// ------------------------------------------------------------------ ref

TEST(Ref, KindNames)
{
    EXPECT_STREQ(refKindName(RefKind::Load), "load");
    EXPECT_STREQ(refKindName(RefKind::Store), "store");
    EXPECT_STREQ(refKindName(RefKind::IFetch), "ifetch");
}

TEST(Ref, ValidAccessSizes)
{
    EXPECT_TRUE(isValidAccessSize(1));
    EXPECT_TRUE(isValidAccessSize(2));
    EXPECT_TRUE(isValidAccessSize(4));
    EXPECT_TRUE(isValidAccessSize(8));
    EXPECT_FALSE(isValidAccessSize(0));
    EXPECT_FALSE(isValidAccessSize(3));
    EXPECT_FALSE(isValidAccessSize(16));
}

TEST(Ref, AlignDown)
{
    EXPECT_EQ(alignDown(0x1237, 16), 0x1230u);
    EXPECT_EQ(alignDown(0x1230, 16), 0x1230u);
    EXPECT_EQ(alignDown(7, 1), 7u);
}

// ---------------------------------------------------------------- Trace

TEST(Trace, AppendAndIterate)
{
    Trace t;
    t.append(makeRef(RefKind::Load, 0x100, 4, 2));
    t.append(makeRef(RefKind::Store, 0x200, 8, 0));
    EXPECT_EQ(t.size(), 2u);
    EXPECT_EQ(t.at(0).addr, 0x100u);
    EXPECT_EQ(t.at(1).kind, RefKind::Store);
}

TEST(Trace, InstructionCountIncludesGaps)
{
    Trace t;
    t.append(makeRef(RefKind::Load, 0, 4, 2));  // 3 instructions
    t.append(makeRef(RefKind::Store, 4, 4, 5)); // 6 instructions
    EXPECT_EQ(t.instructionCount(), 9u);
}

TEST(Trace, CountKind)
{
    Trace t;
    t.append(makeRef(RefKind::Load, 0));
    t.append(makeRef(RefKind::Load, 4));
    t.append(makeRef(RefKind::Store, 8));
    EXPECT_EQ(t.countKind(RefKind::Load), 2u);
    EXPECT_EQ(t.countKind(RefKind::Store), 1u);
    EXPECT_EQ(t.countKind(RefKind::IFetch), 0u);
}

TEST(Trace, NextExhaustsAndResets)
{
    Trace t;
    t.append(makeRef(RefKind::Load, 0x10));
    EXPECT_TRUE(t.next().has_value());
    EXPECT_FALSE(t.next().has_value());
    t.reset();
    EXPECT_TRUE(t.next().has_value());
}

TEST(Trace, DrainStopsAtLimitAndEnd)
{
    Trace t;
    for (int i = 0; i < 5; ++i)
        t.append(makeRef(RefKind::Load, 4 * i));
    EXPECT_EQ(t.drain(3).size(), 3u);
    t.reset();
    EXPECT_EQ(t.drain(50).size(), 5u);
}

// ------------------------------------------------------------ text format

TEST(TextTrace, RoundTrips)
{
    Trace t;
    t.append(makeRef(RefKind::Load, 0xdeadbeef, 8, 3));
    t.append(makeRef(RefKind::Store, 0x42, 2, 0));
    t.append(makeRef(RefKind::IFetch, 0x1000, 4, 1));

    std::stringstream buffer;
    TextTraceFormat::write(t, buffer);
    const Trace back = okOrThrow(TextTraceFormat::read(buffer));

    ASSERT_EQ(back.size(), t.size());
    for (std::size_t i = 0; i < t.size(); ++i)
        EXPECT_EQ(back.at(i), t.at(i)) << "record " << i;
}

TEST(TextTrace, SkipsCommentsAndBlanks)
{
    std::stringstream in("# header\n\nL ff 4 0\n");
    const Trace t = okOrThrow(TextTraceFormat::read(in));
    ASSERT_EQ(t.size(), 1u);
    EXPECT_EQ(t.at(0).addr, 0xffu);
}

TEST(TextTrace, FileRoundTrip)
{
    const std::string path = "/tmp/uatm_test_trace.txt";
    Trace t;
    t.append(makeRef(RefKind::Store, 0x1234, 4, 9));
    ASSERT_TRUE(TextTraceFormat::writeFile(t, path).ok());
    const Trace back = okOrThrow(TextTraceFormat::readFile(path));
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(back.at(0), t.at(0));
    std::remove(path.c_str());
}

// ----------------------------------------------------------- binary format

TEST(BinaryTrace, RoundTrips)
{
    Trace t;
    for (int i = 0; i < 100; ++i) {
        t.append(makeRef(i % 3 == 0 ? RefKind::Store : RefKind::Load,
                         0x1000 + 8 * i, 8,
                         static_cast<std::uint32_t>(i % 7)));
    }
    std::stringstream buffer;
    BinaryTraceFormat::write(t, buffer);
    const Trace back = okOrThrow(BinaryTraceFormat::read(buffer));
    ASSERT_EQ(back.size(), t.size());
    for (std::size_t i = 0; i < t.size(); ++i)
        EXPECT_EQ(back.at(i), t.at(i)) << "record " << i;
}

TEST(BinaryTrace, FileRoundTrip)
{
    const std::string path = "/tmp/uatm_test_trace.bin";
    Trace t;
    t.append(makeRef(RefKind::Load, 0xabcdef0123, 8, 2));
    ASSERT_TRUE(BinaryTraceFormat::writeFile(t, path).ok());
    const Trace back = okOrThrow(BinaryTraceFormat::readFile(path));
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(back.at(0), t.at(0));
    std::remove(path.c_str());
}

TEST(TextTrace, MalformedLineIsParseError)
{
    std::stringstream in("L zz not a trace\n");
    const auto result = TextTraceFormat::read(in);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), ErrorCode::ParseError);
    EXPECT_NE(result.status().message().find("malformed"),
              std::string::npos);
}

TEST(TextTrace, BadAccessSizeIsParseError)
{
    std::stringstream in("L ff 3 0\n");
    const auto result = TextTraceFormat::read(in);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), ErrorCode::ParseError);
    EXPECT_NE(result.status().message().find("access size"),
              std::string::npos);
}

TEST(TextTrace, BadKindIsParseError)
{
    std::stringstream in("Q ff 4 0\n");
    const auto result = TextTraceFormat::read(in);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), ErrorCode::ParseError);
    EXPECT_NE(result.status().message().find("kind"),
              std::string::npos);
}

TEST(BinaryTrace, BadMagicIsParseError)
{
    std::stringstream in("this is not a trace file at all");
    const auto result = BinaryTraceFormat::read(in);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), ErrorCode::ParseError);
    EXPECT_NE(result.status().message().find("magic"),
              std::string::npos);
}

TEST(BinaryTrace, TruncatedBodyIsParseError)
{
    Trace t;
    t.append(MemoryReference{0x10, 0, 4, RefKind::Load});
    t.append(MemoryReference{0x20, 0, 4, RefKind::Load});
    std::stringstream buffer;
    BinaryTraceFormat::write(t, buffer);
    const std::string whole = buffer.str();
    // Drop the last 10 bytes: mid-record truncation.
    std::stringstream cut(
        whole.substr(0, whole.size() - 10));
    const auto result = BinaryTraceFormat::read(cut);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), ErrorCode::ParseError);
    EXPECT_NE(result.status().message().find("truncated"),
              std::string::npos);
}

TEST(BinaryTrace, BadRecordKindIsParseError)
{
    Trace t;
    t.append(MemoryReference{0x10, 0, 4, RefKind::Load});
    std::stringstream buffer;
    BinaryTraceFormat::write(t, buffer);
    std::string whole = buffer.str();
    whole.back() = 0x7f; // corrupt the record's kind byte
    std::stringstream corrupt(whole);
    const auto result = BinaryTraceFormat::read(corrupt);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), ErrorCode::ParseError);
    EXPECT_NE(result.status().message().find("kind"),
              std::string::npos);
}

TEST(TraceIo, MissingFileIsIoError)
{
    const auto result =
        TextTraceFormat::readFile("/nonexistent/trace.txt");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), ErrorCode::IoError);
    EXPECT_NE(result.status().message().find("cannot open"),
              std::string::npos);
}

TEST(TraceIo, UnwritablePathIsIoError)
{
    Trace t;
    t.append(MemoryReference{0x10, 0, 4, RefKind::Load});
    const Status status =
        TextTraceFormat::writeFile(t, "/nonexistent/dir/t.txt");
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), ErrorCode::IoError);
}

// -------------------------------------------------------- WorkloadProfile

TEST(WorkloadProfile, CountsKindsAndInstructions)
{
    WorkloadProfile profile(32);
    profile.add(makeRef(RefKind::Load, 0x00, 4, 1));
    profile.add(makeRef(RefKind::Store, 0x20, 4, 2));
    profile.add(makeRef(RefKind::Load, 0x04, 4, 0));
    EXPECT_EQ(profile.references(), 3u);
    EXPECT_EQ(profile.loads(), 2u);
    EXPECT_EQ(profile.stores(), 1u);
    EXPECT_EQ(profile.instructions(), 6u);
}

TEST(WorkloadProfile, FootprintCountsDistinctBlocks)
{
    WorkloadProfile profile(32);
    profile.add(makeRef(RefKind::Load, 0x00));
    profile.add(makeRef(RefKind::Load, 0x1f)); // same 32B block
    profile.add(makeRef(RefKind::Load, 0x20)); // next block
    EXPECT_EQ(profile.footprintBlocks(), 2u);
    EXPECT_EQ(profile.footprintBytes(), 64u);
}

TEST(WorkloadProfile, DensityAndStoreFraction)
{
    WorkloadProfile profile;
    profile.add(makeRef(RefKind::Load, 0, 4, 3));  // 4 instructions
    profile.add(makeRef(RefKind::Store, 4, 4, 1)); // 2 instructions
    EXPECT_NEAR(profile.memoryReferenceDensity(), 2.0 / 6.0, 1e-12);
    EXPECT_NEAR(profile.storeFraction(), 0.5, 1e-12);
}

TEST(WorkloadProfile, ConsumeRespectsLimit)
{
    Trace t;
    for (int i = 0; i < 10; ++i)
        t.append(makeRef(RefKind::Load, 4 * i));
    WorkloadProfile profile;
    profile.consume(t, 6);
    EXPECT_EQ(profile.references(), 6u);
}

TEST(WorkloadProfile, FormatMentionsName)
{
    WorkloadProfile profile;
    profile.add(makeRef(RefKind::Load, 0));
    EXPECT_NE(profile.format("myworkload").find("myworkload"),
              std::string::npos);
}

} // namespace
} // namespace uatm
