/**
 * @file
 * Unit tests for the replacement policies, exercised both directly
 * and through the cache.
 */

#include <gtest/gtest.h>

#include <set>

#include "cache/cache.hh"
#include "cache/replacement.hh"

namespace uatm {
namespace {

// ------------------------------------------------------------------ LRU

TEST(LruPolicy, EvictsLeastRecentlyTouched)
{
    LruPolicy lru(1, 4);
    for (std::uint32_t w : {0u, 1u, 2u, 3u})
        lru.touch(0, w);
    lru.touch(0, 0); // refresh way 0
    EXPECT_EQ(lru.victim(0), 1u);
}

TEST(LruPolicy, SetsAreIndependent)
{
    LruPolicy lru(2, 2);
    lru.touch(0, 0);
    lru.touch(0, 1);
    lru.touch(1, 1);
    lru.touch(1, 0);
    EXPECT_EQ(lru.victim(0), 0u);
    EXPECT_EQ(lru.victim(1), 1u);
}

TEST(LruPolicy, ResetForgetsHistory)
{
    LruPolicy lru(1, 2);
    lru.touch(0, 0);
    lru.touch(0, 1);
    lru.reset();
    lru.touch(0, 1);
    EXPECT_EQ(lru.victim(0), 0u);
}

// ----------------------------------------------------------------- FIFO

TEST(FifoPolicy, RoundRobinIgnoringTouches)
{
    FifoPolicy fifo(1, 3);
    EXPECT_EQ(fifo.victim(0), 0u);
    fifo.touch(0, 0); // a hit must not reorder FIFO
    EXPECT_EQ(fifo.victim(0), 1u);
    EXPECT_EQ(fifo.victim(0), 2u);
    EXPECT_EQ(fifo.victim(0), 0u);
}

// --------------------------------------------------------------- Random

TEST(RandomPolicy, DeterministicFromSeed)
{
    RandomPolicy a(4, 99), b(4, 99);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(a.victim(0), b.victim(0));
}

TEST(RandomPolicy, CoversAllWays)
{
    RandomPolicy rnd(4, 5);
    std::set<std::uint32_t> seen;
    for (int i = 0; i < 200; ++i)
        seen.insert(rnd.victim(0));
    EXPECT_EQ(seen.size(), 4u);
}

TEST(RandomPolicy, ResetReplays)
{
    RandomPolicy rnd(4, 5);
    std::vector<std::uint32_t> first;
    for (int i = 0; i < 20; ++i)
        first.push_back(rnd.victim(0));
    rnd.reset();
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(rnd.victim(0), first[i]);
}

// ------------------------------------------------------------- TreePLRU

TEST(TreePlruPolicy, VictimAvoidsMostRecent)
{
    TreePlruPolicy plru(1, 4);
    plru.touch(0, 2);
    // The victim must never be the way just touched.
    EXPECT_NE(plru.victim(0), 2u);
}

TEST(TreePlruPolicy, TwoWayBehavesLikeLru)
{
    TreePlruPolicy plru(1, 2);
    plru.touch(0, 0);
    EXPECT_EQ(plru.victim(0), 1u);
    plru.touch(0, 1);
    EXPECT_EQ(plru.victim(0), 0u);
}

TEST(TreePlruPolicy, SequentialTouchesCycleVictims)
{
    TreePlruPolicy plru(1, 8);
    // After touching 0..7 in order the tree points away from 7.
    for (std::uint32_t w = 0; w < 8; ++w)
        plru.touch(0, w);
    const auto victim = plru.victim(0);
    EXPECT_NE(victim, 7u);
}

// ------------------------------------------------------------- factory

TEST(ReplacementFactory, CreatesEveryKind)
{
    for (ReplacementKind kind :
         {ReplacementKind::LRU, ReplacementKind::FIFO,
          ReplacementKind::Random, ReplacementKind::TreePLRU}) {
        CacheConfig config;
        config.replacement = kind;
        auto policy = ReplacementPolicy::create(config);
        ASSERT_NE(policy, nullptr);
        EXPECT_LT(policy->victim(0),
                  config.assoc);
    }
}

// ------------------------------------- policies through the cache

TEST(ReplacementIntegration, PoliciesChangeMissBehaviour)
{
    // A cyclic pattern one line larger than a set defeats LRU
    // (0% reuse hits) but not Random (sometimes lucky).
    auto run = [](ReplacementKind kind) {
        CacheConfig config;
        config.sizeBytes = 256; // 4 sets x 2 x 32B
        config.assoc = 2;
        config.lineBytes = 32;
        config.replacement = kind;
        config.replacementSeed = 7;
        SetAssocCache cache(config);
        // Three lines in set 0, accessed cyclically.
        const Addr lines[3] = {0x000, 0x080, 0x100};
        for (int i = 0; i < 300; ++i)
            cache.access(MemoryReference{lines[i % 3], 0, 4,
                                         RefKind::Load});
        return cache.stats().hitRatio();
    };
    EXPECT_NEAR(run(ReplacementKind::LRU), 0.0, 0.02);
    EXPECT_GT(run(ReplacementKind::Random), 0.1);
}

TEST(ReplacementIntegration, PlruTracksLruOnTypicalStreams)
{
    auto run = [](ReplacementKind kind) {
        CacheConfig config;
        config.sizeBytes = 4096;
        config.assoc = 4;
        config.lineBytes = 32;
        config.replacement = kind;
        SetAssocCache cache(config);
        Rng rng(17);
        for (int i = 0; i < 20000; ++i) {
            const Addr addr = rng.nextBelow(16 * 1024) & ~3ull;
            cache.access(MemoryReference{addr, 0, 4, RefKind::Load});
        }
        return cache.stats().hitRatio();
    };
    EXPECT_NEAR(run(ReplacementKind::TreePLRU),
                run(ReplacementKind::LRU), 0.03);
}

} // namespace
} // namespace uatm
