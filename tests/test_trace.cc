/**
 * @file
 * Unit tests for the trace substrate: reference records, the trace
 * container, source adaptors, file formats and the profiler.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <latch>
#include <sstream>
#include <thread>
#include <vector>

#include "trace/file_store.hh"
#include "trace/io.hh"
#include "trace/ref.hh"
#include "trace/source.hh"
#include "trace/trace_stats.hh"

#include "stream_digest.hh"

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

TEST(BinaryTrace, WrittenBytesArePinned)
{
    // 5000 records span several write chunks and end inside one;
    // every kind and access size appears.  The digest was taken
    // from the writer that wrote one record per call.
    constexpr std::uint8_t kSizes[] = {1, 2, 4, 8};
    Trace t;
    for (std::uint32_t i = 0; i < 5000; ++i) {
        t.append(makeRef(static_cast<RefKind>(i % 3),
                         0x100000000ull * (i % 5) + 8 * i,
                         kSizes[i % 4], i % 13));
    }
    std::stringstream buffer;
    BinaryTraceFormat::write(t, buffer);
    EXPECT_EQ(buffer.str().size(), 16u + 14u * 5000u);
    StreamDigest digest;
    digest.add(buffer.str());
    EXPECT_EQ(digest.value(), 0x85aa57764b3cd0aull)
        << "actual 0x" << std::hex << digest.value();
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

TEST(TraceIo, FailedWriteIsIoErrorInBothFormats)
{
    // A path that opens but takes no bytes: a capture onto a full
    // disk must not report success over a truncated file.
    Trace t;
    for (std::uint32_t i = 0; i < 20000; ++i)
        t.append(MemoryReference{0x1000 + 8ull * i, i % 3, 8,
                                 RefKind::Load});
    const Status binary = BinaryTraceFormat::writeFile(t, "/dev/full");
    ASSERT_FALSE(binary.ok());
    EXPECT_EQ(binary.code(), ErrorCode::IoError);
    const Status text = TextTraceFormat::writeFile(t, "/dev/full");
    ASSERT_FALSE(text.ok());
    EXPECT_EQ(text.code(), ErrorCode::IoError);
}

// ------------------------------------------------------ binary trace files

/** @p n references; @p salt moves every address. */
Trace
numberedTrace(std::size_t n, Addr salt = 0)
{
    Trace t;
    for (std::size_t i = 0; i < n; ++i) {
        t.append(makeRef(i % 4 == 0 ? RefKind::Store : RefKind::Load,
                         salt + 8 * i, 8,
                         static_cast<std::uint32_t>(i % 5)));
    }
    return t;
}

std::string
binaryBytes(const Trace &trace)
{
    std::stringstream buffer;
    BinaryTraceFormat::write(trace, buffer);
    return buffer.str();
}

/** A file of its own per test: ctest runs tests as parallel
 *  processes. */
std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "uatm_test_trace_" + name;
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << path;
}

TEST(BinaryTraceFile, CountBeyondTheFileIsTruncation)
{
    // One 14-byte record: a 30-byte file.
    const std::string one = binaryBytes(numberedTrace(1));
    ASSERT_EQ(one.size(), 30u);
    const std::string path = tempPath("count.trc");
    for (const std::uint64_t count :
         {std::uint64_t{2}, std::uint64_t{1} << 60, ~std::uint64_t{0}}) {
        std::string bytes = one;
        std::memcpy(bytes.data() + 8, &count, sizeof(count));
        writeBytes(path, bytes);
        // Allocating for the claimed count would fail (or trip ASan)
        // long before the read.
        const auto result = BinaryTraceFormat::readFile(path);
        ASSERT_FALSE(result.ok()) << count;
        EXPECT_EQ(result.status().code(), ErrorCode::ParseError);
        EXPECT_NE(result.status().message().find(
                      "truncated binary trace at record 1"),
                  std::string::npos)
            << result.status().message();
    }
    std::remove(path.c_str());
}

TEST(BinaryTraceFile, BytesAfterTheLastRecordAreParseError)
{
    const std::string path = tempPath("trailing.trc");
    writeBytes(path, binaryBytes(numberedTrace(3)) + "extra");
    const auto result = BinaryTraceFormat::readFile(path);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), ErrorCode::ParseError);
    EXPECT_NE(result.status().message().find(
                  "has 5 bytes after its last record"),
              std::string::npos)
        << result.status().message();
    std::remove(path.c_str());
}

TEST(BinaryTraceFile, DirectoryIsIoError)
{
    for (const auto &result :
         {BinaryTraceFormat::readFile(::testing::TempDir()),
          TextTraceFormat::readFile(::testing::TempDir())}) {
        ASSERT_FALSE(result.ok());
        EXPECT_EQ(result.status().code(), ErrorCode::IoError);
        EXPECT_NE(result.status().message().find("not a regular file"),
                  std::string::npos)
            << result.status().message();
    }
}

TEST(BinaryTraceFile, BadRecordKeepsItsCodeAndIndexPastTheFirstChunk)
{
    // Record 2100 lies in the second read chunk of either reader.
    const std::string good = binaryBytes(numberedTrace(3000));
    const std::size_t record = 16 + 14 * 2100;
    std::string bad_kind = good;
    bad_kind[record + 13] = 0x7f;
    std::string bad_size = good;
    bad_size[record + 12] = 3;
    const std::string path = tempPath("bad_record.trc");
    for (const auto &[bytes, what] :
         {std::pair{bad_kind, "bad reference kind"},
          std::pair{bad_size, "bad access size"}}) {
        writeBytes(path, bytes);
        std::stringstream in(bytes);
        for (const auto &result : {BinaryTraceFormat::readFile(path),
                                   BinaryTraceFormat::read(in)}) {
            ASSERT_FALSE(result.ok()) << what;
            EXPECT_EQ(result.status().code(), ErrorCode::ParseError);
            EXPECT_NE(result.status().message().find(
                          std::string(what) +
                          " in binary trace record 2100"),
                      std::string::npos)
                << result.status().message();
        }
    }
    std::remove(path.c_str());
}

TEST(BinaryTraceFile, RoundTripsAcrossChunks)
{
    const Trace t = numberedTrace(5000, 0x40000);
    const std::string path = tempPath("chunks.trc");
    ASSERT_TRUE(BinaryTraceFormat::writeFile(t, path).ok());
    const Trace back = okOrThrow(BinaryTraceFormat::readFile(path));
    EXPECT_EQ(back.refs(), t.refs());
    std::remove(path.c_str());
}

// ------------------------------------------------------------ file store

std::vector<MemoryReference>
drainAll(TraceSource &source)
{
    return source.drain(1u << 20);
}

TEST(TraceFileStore, MakesShareOneDecodeAndReadIndependently)
{
    const Trace t = numberedTrace(3000);
    const std::string path = tempPath("share.trc");
    ASSERT_TRUE(BinaryTraceFormat::writeFile(t, path).ok());
    auto &store = TraceFileStore::instance();
    const std::uint64_t before = store.decodes();
    auto a = okOrThrow(store.make(path, TraceFileFormat::Binary));
    auto b = okOrThrow(store.make(path, TraceFileFormat::Binary));
    EXPECT_EQ(store.decodes() - before, 1u);

    // Each cursor keeps its own place.
    const auto head = a->drain(100);
    EXPECT_EQ(b->next(), t.at(0));
    a->reset();
    EXPECT_EQ(a->drain(100), head);
    EXPECT_EQ(drainAll(*a), std::vector<MemoryReference>(
                                t.refs().begin() + 100, t.refs().end()));
    b->reset();
    EXPECT_EQ(drainAll(*b), t.refs());
    std::remove(path.c_str());
}

TEST(TraceFileStore, TextTracesShareOneDecodeToo)
{
    const Trace t = numberedTrace(50);
    const std::string path = tempPath("share.txt");
    ASSERT_TRUE(TextTraceFormat::writeFile(t, path).ok());
    auto &store = TraceFileStore::instance();
    const std::uint64_t before = store.decodes();
    auto a = okOrThrow(store.make(path, TraceFileFormat::Text));
    auto b = okOrThrow(store.make(path, TraceFileFormat::Text));
    EXPECT_EQ(store.decodes() - before, 1u);
    EXPECT_EQ(drainAll(*a), t.refs());
    EXPECT_EQ(drainAll(*b), t.refs());
    // The same file asked for in another format is decoded as that
    // format, not served from the text decode.
    const auto binary = store.make(path, TraceFileFormat::Binary);
    ASSERT_FALSE(binary.ok());
    EXPECT_EQ(binary.status().code(), ErrorCode::ParseError);
    std::remove(path.c_str());
}

TEST(TraceFileStore, ConcurrentMakesOfOneFileDecodeItOnce)
{
    constexpr int kThreads = 4;
    const std::string path = tempPath("concurrent.trc");
    auto &store = TraceFileStore::instance();
    for (std::size_t round = 0; round < 3; ++round) {
        // A new size each round: a new version of the file.
        const Trace t = numberedTrace(20000 + round);
        ASSERT_TRUE(BinaryTraceFormat::writeFile(t, path).ok());
        const std::uint64_t before = store.decodes();
        std::latch start(kThreads);
        std::vector<std::vector<MemoryReference>> seen(kThreads);
        std::vector<std::thread> threads;
        for (int i = 0; i < kThreads; ++i) {
            threads.emplace_back([&, i] {
                start.arrive_and_wait();
                auto source =
                    store.make(path, TraceFileFormat::Binary);
                if (source.ok())
                    seen[i] = drainAll(*source.value());
            });
        }
        for (auto &thread : threads)
            thread.join();
        EXPECT_EQ(store.decodes() - before, 1u) << "round " << round;
        for (const auto &refs : seen)
            EXPECT_EQ(refs, t.refs()) << "round " << round;
    }
    std::remove(path.c_str());
}

TEST(TraceFileStore, ChangedFileIsDecodedAgain)
{
    const std::string path = tempPath("rewrite.trc");
    auto &store = TraceFileStore::instance();
    ASSERT_TRUE(
        BinaryTraceFormat::writeFile(numberedTrace(100), path).ok());
    const std::uint64_t before = store.decodes();
    auto first = okOrThrow(store.make(path, TraceFileFormat::Binary));
    (void)okOrThrow(store.make(path, TraceFileFormat::Binary));
    EXPECT_EQ(store.decodes() - before, 1u);

    // Rewritten with a new size.
    const Trace longer = numberedTrace(101, 0x1000);
    ASSERT_TRUE(BinaryTraceFormat::writeFile(longer, path).ok());
    auto second = okOrThrow(store.make(path, TraceFileFormat::Binary));
    EXPECT_EQ(store.decodes() - before, 2u);
    EXPECT_EQ(drainAll(*second), longer.refs());
    EXPECT_EQ(drainAll(*first), numberedTrace(100).refs());

    // Same bytes, mtime moved: decoded again.
    namespace fs = std::filesystem;
    fs::last_write_time(path, fs::last_write_time(path) +
                                  std::chrono::seconds(1));
    auto third = okOrThrow(store.make(path, TraceFileFormat::Binary));
    EXPECT_EQ(store.decodes() - before, 3u);
    EXPECT_EQ(drainAll(*third), longer.refs());
    std::remove(path.c_str());
}

TEST(TraceFileStore, DeletedFileIsIoErrorWhileLiveCursorsKeepReading)
{
    const Trace t = numberedTrace(500);
    const std::string path = tempPath("deleted.trc");
    ASSERT_TRUE(BinaryTraceFormat::writeFile(t, path).ok());
    auto &store = TraceFileStore::instance();
    auto live = okOrThrow(store.make(path, TraceFileFormat::Binary));
    const auto head = live->drain(10);
    std::remove(path.c_str());

    const auto gone = store.make(path, TraceFileFormat::Binary);
    ASSERT_FALSE(gone.ok());
    EXPECT_EQ(gone.status().code(), ErrorCode::IoError);
    EXPECT_EQ(drainAll(*live), std::vector<MemoryReference>(
                                   t.refs().begin() + 10, t.refs().end()));
    live->reset();
    EXPECT_EQ(drainAll(*live), t.refs());
}

TEST(TraceFileStore, KeepsTheLastDecodeAndDropsOlderUnreadOnes)
{
    const std::string path_a = tempPath("keep_a.trc");
    const std::string path_b = tempPath("keep_b.trc");
    ASSERT_TRUE(
        BinaryTraceFormat::writeFile(numberedTrace(10), path_a).ok());
    ASSERT_TRUE(
        BinaryTraceFormat::writeFile(numberedTrace(20), path_b).ok());
    auto &store = TraceFileStore::instance();
    const std::uint64_t before = store.decodes();
    // No cursor outlives its make(): a is kept only as the last
    // decode handed out...
    (void)okOrThrow(store.make(path_a, TraceFileFormat::Binary));
    (void)okOrThrow(store.make(path_a, TraceFileFormat::Binary));
    EXPECT_EQ(store.decodes() - before, 1u);
    // ...until b takes that place, and then a is decoded again.
    (void)okOrThrow(store.make(path_b, TraceFileFormat::Binary));
    (void)okOrThrow(store.make(path_a, TraceFileFormat::Binary));
    EXPECT_EQ(store.decodes() - before, 3u);
    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
}

TEST(TraceFileStore, MalformedFileIsNotRemembered)
{
    const std::string path = tempPath("malformed.trc");
    writeBytes(path, "not a trace at all, not even close");
    auto &store = TraceFileStore::instance();
    const std::uint64_t before = store.decodes();
    for (int i = 0; i < 2; ++i) {
        const auto result = store.make(path, TraceFileFormat::Binary);
        ASSERT_FALSE(result.ok());
        EXPECT_EQ(result.status().code(), ErrorCode::ParseError);
    }
    EXPECT_EQ(store.decodes() - before, 2u);
    std::remove(path.c_str());
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
