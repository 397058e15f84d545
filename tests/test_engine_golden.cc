/**
 * @file
 * Golden digests of the timing engine.  Each stalling feature runs a
 * seeded grid (write buffers, memory pipelining, write policies,
 * prefetch policies and run lengths around the stream's end), and a
 * 64-bit digest of every TimingStats and CacheStats counter of every
 * point is pinned.  The constants were computed by the engine that
 * pulled one next() per reference, so a change to how the engine
 * reads its stream, or to how it prices one, that moves a single
 * counter of a single point fails here.
 */

#include <gtest/gtest.h>

#include "cpu/timing_engine.hh"
#include "trace/generators.hh"

#include "stream_digest.hh"

namespace uatm {
namespace {

/** References in the replayed stream. */
constexpr std::uint64_t kStreamRefs = 6000;

void
addStats(StreamDigest &digest, const TimingStats &t,
         const CacheStats &c)
{
    for (const std::uint64_t word :
         {t.cycles, t.instructions, t.references, t.fills,
          t.writeArounds, t.initialMissWait, t.inflightAccessStall,
          t.missSerializationStall, t.flushStall, t.writeStall,
          t.bufferFullStall, t.portContentionWait,
          t.prefetchesIssued, t.prefetchesUseful, t.prefetchesLate,
          c.accesses, c.loads, c.stores, c.hits, c.misses,
          c.loadMisses, c.storeMisses, c.fills, c.writebacks,
          c.storesToMemory, c.storesToMemoryBytes,
          c.prefetchInserts, c.instructions})
        digest.add(word);
}

/** Digest of one feature's grid, every point replaying @p stream. */
std::uint64_t
gridDigest(StallFeature feature, std::uint32_t mshrs, Trace &stream)
{
    struct WritePolicies
    {
        WriteMissPolicy miss;
        WritePolicy hit;
    };
    static const WritePolicies kWrites[] = {
        {WriteMissPolicy::WriteAllocate, WritePolicy::WriteBack},
        {WriteMissPolicy::WriteAround, WritePolicy::WriteBack},
        {WriteMissPolicy::WriteAllocate, WritePolicy::WriteThrough},
    };
    StreamDigest digest;
    for (const std::uint32_t depth : {0u, 8u}) {
        for (const bool pipelined : {false, true}) {
            for (const WritePolicies &write : kWrites) {
                for (const PrefetchPolicy prefetch :
                     {PrefetchPolicy::None, PrefetchPolicy::OnMiss,
                      PrefetchPolicy::Tagged}) {
                    CacheConfig cache;
                    cache.sizeBytes = 4096;
                    cache.assoc = 2;
                    cache.lineBytes = 32;
                    cache.writeMiss = write.miss;
                    cache.write = write.hit;
                    MemoryConfig memory;
                    memory.busWidthBytes = 4;
                    memory.cycleTime = 8;
                    memory.pipelined = pipelined;
                    memory.pipelineInterval = 2;
                    CpuConfig cpu;
                    cpu.feature = feature;
                    cpu.mshrs = mshrs;
                    cpu.prefetch = prefetch;
                    TimingEngine engine(cache, memory,
                                        WriteBufferConfig{depth, true},
                                        cpu);
                    for (const std::uint64_t refs :
                         {kStreamRefs / 2 - 1, kStreamRefs,
                          2 * kStreamRefs + 1}) {
                        const TimingStats stats =
                            engine.run(stream, refs);
                        addStats(digest, stats, engine.cacheStats());
                    }
                }
            }
        }
    }
    return digest.value();
}

TEST(GoldenEngineDigest, EveryFeatureOverTheGrid)
{
    struct Golden
    {
        const char *label;
        StallFeature feature;
        std::uint32_t mshrs;
        std::uint64_t digest;
    };
    static const Golden kGolden[] = {
        {"FS", StallFeature::FS, 1, 0xd863fdd13ce475e0ull},
        {"BL", StallFeature::BL, 1, 0x391a3e68d8c1b86full},
        {"BNL1", StallFeature::BNL1, 1, 0xf9658f1058018b7bull},
        {"BNL2", StallFeature::BNL2, 1, 0xbe667ade9f95692cull},
        {"BNL3", StallFeature::BNL3, 1, 0xe8d8a9fac3d6a687ull},
        {"NB/1", StallFeature::NB, 1, 0x227fda22f1de2e17ull},
        {"NB/4", StallFeature::NB, 4, 0x705f87b5d424ffa5ull},
    };
    Trace stream(Spec92Profile::make("doduc", 3)->drain(kStreamRefs));
    for (const Golden &golden : kGolden) {
        const std::uint64_t digest =
            gridDigest(golden.feature, golden.mshrs, stream);
        EXPECT_EQ(digest, golden.digest)
            << golden.label << ": actual 0x" << std::hex << digest;
    }
}

TEST(GoldenEngineDigest, GeneratorFedRunMatchesItsTrace)
{
    // A live generator and its drained Trace reach the engine through
    // different fillBatch paths; the engine must not tell them apart.
    Trace stream(Spec92Profile::make("doduc", 3)->drain(kStreamRefs));
    auto generator = Spec92Profile::make("doduc", 3);
    CacheConfig cache;
    cache.sizeBytes = 4096;
    MemoryConfig memory;
    memory.pipelined = true;
    CpuConfig cpu;
    cpu.feature = StallFeature::NB;
    cpu.mshrs = 4;
    cpu.prefetch = PrefetchPolicy::Tagged;
    TimingEngine engine(cache, memory, WriteBufferConfig{8, true}, cpu);
    StreamDigest from_trace;
    addStats(from_trace, engine.run(stream, kStreamRefs),
             engine.cacheStats());
    StreamDigest from_generator;
    addStats(from_generator, engine.run(*generator, kStreamRefs),
             engine.cacheStats());
    EXPECT_EQ(from_generator.value(), from_trace.value());
}

} // namespace
} // namespace uatm
