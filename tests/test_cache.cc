/**
 * @file
 * Unit tests for the set-associative cache model, including the
 * write policies the paper's workload parameters depend on.
 */

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "cache/sweep.hh"
#include "trace/generators.hh"
#include "trace/trace_stats.hh"

namespace uatm {
namespace {

MemoryReference
load(Addr addr, std::uint32_t gap = 0)
{
    return MemoryReference{addr, gap, 4, RefKind::Load};
}

MemoryReference
store(Addr addr, std::uint32_t gap = 0)
{
    return MemoryReference{addr, gap, 4, RefKind::Store};
}

CacheConfig
smallCache()
{
    CacheConfig config;
    config.sizeBytes = 256; // 4 sets x 2 ways x 32B
    config.assoc = 2;
    config.lineBytes = 32;
    return config;
}

// ----------------------------------------------------------- CacheConfig

TEST(CacheConfig, GeometryDerivation)
{
    CacheConfig config;
    config.sizeBytes = 8 * 1024;
    config.assoc = 2;
    config.lineBytes = 32;
    EXPECT_EQ(config.numSets(), 128u);
    EXPECT_EQ(config.numLines(), 256u);
    EXPECT_TRUE(config.validate().ok());
}

TEST(CacheConfig, RejectsNonPow2Size)
{
    CacheConfig config;
    config.sizeBytes = 3000;
    const Status status = config.validate();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), ErrorCode::InvalidArgument);
    EXPECT_NE(status.message().find("power of two"),
              std::string::npos);
}

TEST(CacheConfig, RejectsTinyLine)
{
    CacheConfig config;
    config.lineBytes = 2;
    const Status status = config.validate();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), ErrorCode::InvalidArgument);
    EXPECT_NE(status.message().find("line"), std::string::npos);
}

TEST(CacheConfig, DescribeMentionsGeometry)
{
    CacheConfig config;
    const std::string text = config.describe();
    EXPECT_NE(text.find("8KB"), std::string::npos);
    EXPECT_NE(text.find("2-way"), std::string::npos);
    EXPECT_NE(text.find("32B"), std::string::npos);
}

// -------------------------------------------------------- basic behaviour

TEST(Cache, MissThenHit)
{
    SetAssocCache cache(smallCache());
    auto first = cache.access(load(0x100));
    EXPECT_FALSE(first.hit);
    EXPECT_TRUE(first.fill);

    auto second = cache.access(load(0x104)); // same line
    EXPECT_TRUE(second.hit);
    EXPECT_FALSE(second.fill);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(Cache, LineGranularity)
{
    SetAssocCache cache(smallCache());
    cache.access(load(0x100));
    EXPECT_TRUE(cache.access(load(0x11f)).hit);  // last byte of line
    EXPECT_FALSE(cache.access(load(0x120)).hit); // next line
}

TEST(Cache, ProbeDoesNotDisturbState)
{
    SetAssocCache cache(smallCache());
    cache.access(load(0x100));
    const CacheStats before = cache.stats();
    EXPECT_TRUE(cache.probe(0x104));
    EXPECT_FALSE(cache.probe(0x200));
    EXPECT_EQ(cache.stats().accesses, before.accesses);
}

TEST(Cache, ConflictEvictionWithinSet)
{
    // 4 sets, 2 ways: three lines mapping to set 0 overflow it.
    SetAssocCache cache(smallCache());
    cache.access(load(0x000)); // set 0
    cache.access(load(0x080)); // set 0 (4 sets * 32B = 128B stride)
    cache.access(load(0x100)); // set 0 -> evicts LRU (0x000)
    EXPECT_FALSE(cache.probe(0x000));
    EXPECT_TRUE(cache.probe(0x080));
    EXPECT_TRUE(cache.probe(0x100));
}

TEST(Cache, LruKeepsRecentlyTouched)
{
    SetAssocCache cache(smallCache());
    cache.access(load(0x000));
    cache.access(load(0x080));
    cache.access(load(0x004)); // touch 0x000's line again
    cache.access(load(0x100)); // evicts 0x080 (now LRU)
    EXPECT_TRUE(cache.probe(0x000));
    EXPECT_FALSE(cache.probe(0x080));
}

// ------------------------------------------------------------ write paths

TEST(Cache, WriteBackMarksDirtyAndFlushesOnEviction)
{
    SetAssocCache cache(smallCache());
    cache.access(store(0x000));
    EXPECT_TRUE(cache.probeDirty(0x000));
    cache.access(load(0x080));
    const auto out = cache.access(load(0x100)); // evicts dirty 0x000
    EXPECT_TRUE(out.writeback);
    EXPECT_EQ(out.victimLineAddr, 0x000u);
    EXPECT_EQ(cache.stats().writebacks, 1u);
}

TEST(Cache, CleanEvictionHasNoWriteback)
{
    SetAssocCache cache(smallCache());
    cache.access(load(0x000));
    cache.access(load(0x080));
    const auto out = cache.access(load(0x100));
    EXPECT_FALSE(out.writeback);
}

TEST(Cache, WriteAllocateStoreMissFills)
{
    CacheConfig config = smallCache();
    config.writeMiss = WriteMissPolicy::WriteAllocate;
    SetAssocCache cache(config);
    const auto out = cache.access(store(0x100));
    EXPECT_TRUE(out.fill);
    EXPECT_FALSE(out.storeToMemory);
    EXPECT_TRUE(cache.probeDirty(0x100));
    EXPECT_EQ(cache.stats().fills, 1u);
}

TEST(Cache, WriteAroundStoreMissBypasses)
{
    CacheConfig config = smallCache();
    config.writeMiss = WriteMissPolicy::WriteAround;
    SetAssocCache cache(config);
    const auto out = cache.access(store(0x100));
    EXPECT_FALSE(out.fill);
    EXPECT_TRUE(out.storeToMemory);
    EXPECT_FALSE(cache.probe(0x100));
    EXPECT_EQ(cache.stats().storesToMemory, 1u);
}

TEST(Cache, WriteAroundLoadMissStillFills)
{
    CacheConfig config = smallCache();
    config.writeMiss = WriteMissPolicy::WriteAround;
    SetAssocCache cache(config);
    EXPECT_TRUE(cache.access(load(0x100)).fill);
}

TEST(Cache, WriteThroughStoresAlwaysGoToMemory)
{
    CacheConfig config = smallCache();
    config.write = WritePolicy::WriteThrough;
    SetAssocCache cache(config);
    cache.access(load(0x100));
    const auto hit = cache.access(store(0x104));
    EXPECT_TRUE(hit.hit);
    EXPECT_TRUE(hit.storeToMemory);
    EXPECT_FALSE(cache.probeDirty(0x104));
    // No dirty lines ever: evictions never write back.
    cache.access(load(0x180));
    EXPECT_FALSE(cache.access(load(0x200)).writeback);
}

// -------------------------------------------------------------- statistics

TEST(Cache, StatsMatchPaperVocabulary)
{
    SetAssocCache cache(smallCache());
    cache.access(load(0x000, 3)); // miss, 4 instructions
    cache.access(load(0x004, 1)); // hit, 2 instructions
    cache.access(store(0x080, 0)); // miss (write-allocate)
    const CacheStats &s = cache.stats();
    EXPECT_EQ(s.accesses, 3u);
    EXPECT_EQ(s.instructions, 7u);
    EXPECT_EQ(s.fills, 2u);
    EXPECT_EQ(s.bytesRead(32), 64u);
    EXPECT_NEAR(s.hitRatio(), 1.0 / 3.0, 1e-12);
}

TEST(Cache, FlushRatioIsFlushedOverRead)
{
    SetAssocCache cache(smallCache());
    cache.access(store(0x000));
    cache.access(load(0x080));
    cache.access(load(0x100)); // evicts dirty line
    const CacheStats &s = cache.stats();
    EXPECT_EQ(s.bytesFlushed(32), 32u);
    EXPECT_EQ(s.bytesRead(32), 96u);
    EXPECT_NEAR(s.flushRatio(32), 1.0 / 3.0, 1e-12);
}

TEST(Cache, ColdMissClassification)
{
    // Compulsory misses are a property of the stream: its distinct
    // lines.  Every further miss is a conflict or capacity miss.
    const MemoryReference refs[] = {
        load(0x000), // cold
        load(0x080),
        load(0x100), // evicts 0x000
        load(0x000), // conflict miss
    };
    SetAssocCache cache(smallCache());
    WorkloadProfile profile(smallCache().lineBytes);
    for (const MemoryReference &ref : refs) {
        cache.access(ref);
        profile.add(ref);
    }
    EXPECT_EQ(profile.footprintBlocks(), 3u);
    EXPECT_EQ(cache.stats().misses, 4u);
}

TEST(Cache, EmptySetFillsEveryWayBeforeEvicting)
{
    // The cache fills a set's invalid ways itself and asks the
    // policy for a victim only once the set is full, under every
    // policy, through both access() and installLine().
    for (ReplacementKind kind :
         {ReplacementKind::LRU, ReplacementKind::FIFO,
          ReplacementKind::Random, ReplacementKind::TreePLRU}) {
        CacheConfig config;
        config.sizeBytes = 512; // 4 sets x 4 ways x 32B
        config.assoc = 4;
        config.lineBytes = 32;
        config.replacement = kind;
        SetAssocCache cache(config);
        const std::string label = replacementKindName(kind);
        // Lines `stride` apart share a set; set 1 is filled by
        // installLine, set 0 by access.
        const Addr stride = config.numSets() * config.lineBytes;
        const Addr set1 = config.lineBytes;

        for (Addr i = 0; i < config.assoc; ++i) {
            const AccessOutcome out = cache.access(load(i * stride));
            EXPECT_TRUE(out.fill) << label;
            EXPECT_FALSE(out.evictedValid) << label;
            const InstallOutcome in =
                cache.installLine(set1 + i * stride, false);
            EXPECT_TRUE(in.inserted) << label;
            EXPECT_FALSE(in.evictedValid) << label;
        }
        for (Addr i = 0; i < config.assoc; ++i) {
            EXPECT_TRUE(cache.probe(i * stride)) << label;
            EXPECT_TRUE(cache.probe(set1 + i * stride)) << label;
        }

        const Addr next = config.assoc * stride;
        const AccessOutcome out = cache.access(load(next));
        EXPECT_TRUE(out.evictedValid) << label;
        EXPECT_EQ(out.evictedLineAddr % stride, 0u) << label;
        EXPECT_LT(out.evictedLineAddr, next) << label;
        const InstallOutcome in = cache.installLine(set1 + next, false);
        EXPECT_TRUE(in.evictedValid) << label;
        EXPECT_EQ(in.evictedLineAddr % stride, set1) << label;
        EXPECT_LT(in.evictedLineAddr, set1 + next) << label;
        EXPECT_EQ(cache.stats().misses, config.assoc + 1) << label;
    }
}

TEST(Cache, InvalidateAllCountsDirtyLines)
{
    SetAssocCache cache(smallCache());
    cache.access(store(0x000));
    cache.access(store(0x020));
    cache.access(load(0x040));
    EXPECT_EQ(cache.invalidateAll(), 2u);
    EXPECT_FALSE(cache.probe(0x000));
}

TEST(Cache, ResetClearsEverything)
{
    SetAssocCache cache(smallCache());
    cache.access(load(0x000));
    cache.reset();
    EXPECT_EQ(cache.stats().accesses, 0u);
    EXPECT_FALSE(cache.probe(0x000));
    cache.access(load(0x000));
    EXPECT_EQ(cache.stats().misses, 1u);
}

// ---------------------------------------------------------- direct-mapped

TEST(Cache, DirectMappedConflicts)
{
    CacheConfig config;
    config.sizeBytes = 128; // 4 sets x 1 way x 32B
    config.assoc = 1;
    config.lineBytes = 32;
    SetAssocCache cache(config);
    cache.access(load(0x000));
    cache.access(load(0x080)); // same set, evicts immediately
    EXPECT_FALSE(cache.probe(0x000));
}

// ------------------------------------------------------------ full-assoc

TEST(Cache, FullyAssociativeUsesWholeCapacity)
{
    CacheConfig config;
    config.sizeBytes = 128;
    config.assoc = 4;
    config.lineBytes = 32;
    SetAssocCache cache(config);
    for (Addr a = 0; a < 4 * 32; a += 32)
        cache.access(load(a));
    for (Addr a = 0; a < 4 * 32; a += 32)
        EXPECT_TRUE(cache.probe(a));
}

// ----------------------------------------------------- hit-ratio properties

/** Larger caches never hit less on the same stream. */
TEST(CacheProperty, HitRatioMonotoneInSize)
{
    WorkingSetGenerator::Config ws;
    ws.stackDepth = 300;
    ws.decay = 0.98;
    ws.coldFraction = 0.01;
    WorkingSetGenerator gen(ws, Rng(11));

    CacheConfig config;
    config.assoc = 2;
    config.lineBytes = 32;
    double previous = 0.0;
    for (std::uint64_t size : {2048, 8192, 32768, 131072}) {
        config.sizeBytes = size;
        const double hit_ratio =
            runCacheSim(config, gen, 30000).hitRatio();
        EXPECT_GE(hit_ratio + 0.005, previous) << "size " << size;
        previous = hit_ratio;
    }
}

/** On a unit-stride stream, doubling the line halves the misses. */
TEST(CacheProperty, SpatialLocalityRewardsLargerLines)
{
    StrideGenerator::Config stream;
    stream.elements = 1 << 14;
    stream.elemSize = 4;
    stream.strideBytes = 4;
    stream.storeFraction = 0.0;
    StrideGenerator gen(stream, Rng(3));

    CacheConfig config;
    config.sizeBytes = 8 * 1024;
    config.assoc = 2;
    double previous = 0.0;
    for (std::uint32_t line : {8, 16, 32, 64}) {
        config.lineBytes = line;
        const double miss_ratio =
            runCacheSim(config, gen, 16384).missRatio();
        if (line > 8) {
            EXPECT_NEAR(miss_ratio, previous / 2.0, previous * 0.2)
                << "line " << line;
        }
        previous = miss_ratio;
    }
}

TEST(CacheSweep, WarmupExcludesColdTransient)
{
    StrideGenerator::Config stream;
    stream.elements = 256; // fits in cache after one pass
    stream.elemSize = 4;
    stream.strideBytes = 4;
    stream.storeFraction = 0.0;
    StrideGenerator gen(stream, Rng(1));

    CacheConfig config;
    config.sizeBytes = 8 * 1024;
    config.assoc = 2;
    config.lineBytes = 32;

    const auto cold = runCacheSim(config, gen, 2048, 0);
    const auto warm = runCacheSim(config, gen, 2048, 512);
    EXPECT_GT(warm.hitRatio(), cold.hitRatio());
    EXPECT_NEAR(warm.hitRatio(), 1.0, 1e-9);
}

} // namespace
} // namespace uatm
