/**
 * @file
 * Tests for the YCSB-style key-value workload: the zipfian sampler
 * against the analytic distribution, the six mixes' operation
 * semantics, and the TraceSource contract (reset/clone).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "trace/ycsb.hh"
#include "util/random.hh"

namespace uatm {
namespace {

double
zeta(std::uint64_t n, double theta)
{
    double sum = 0.0;
    for (std::uint64_t i = 1; i <= n; ++i)
        sum += 1.0 / std::pow(static_cast<double>(i), theta);
    return sum;
}

// ------------------------------------------------- ZipfianSampler

TEST(ZipfianSampler, MatchesTheAnalyticCdf)
{
    constexpr std::uint64_t kItems = 1000;
    constexpr double kTheta = 0.99;
    constexpr std::size_t kDraws = 200000;

    ZipfianSampler zipf(kItems, kTheta);
    Rng rng(42);
    std::vector<std::uint64_t> counts(kItems, 0);
    for (std::size_t i = 0; i < kDraws; ++i) {
        const std::uint64_t rank = zipf.next(rng);
        ASSERT_LT(rank, kItems);
        ++counts[rank];
    }

    // Empirical CDF against sum_{i<=r} (1/(i+1)^theta) / zeta_n.
    const double zetan = zeta(kItems, kTheta);
    double analytic = 0.0;
    std::uint64_t seen = 0;
    std::uint64_t from = 0;
    for (std::uint64_t rank : {std::uint64_t{0}, std::uint64_t{1},
                               std::uint64_t{9}, std::uint64_t{99},
                               std::uint64_t{999}}) {
        // Accumulate up to and including this rank.
        for (std::uint64_t i = from; i <= rank; ++i) {
            analytic +=
                1.0 /
                (std::pow(static_cast<double>(i + 1), kTheta) *
                 zetan);
            seen += counts[i];
        }
        from = rank + 1;
        const double empirical =
            static_cast<double>(seen) / kDraws;
        // Gray's inversion is exact for ranks 0/1 and a continuous
        // approximation beyond, hence the loose-ish tolerance.
        EXPECT_NEAR(empirical, analytic, 0.02) << "rank " << rank;
    }
}

TEST(ZipfianSampler, RankZeroIsTheHottest)
{
    ZipfianSampler zipf(100, 0.99);
    Rng rng(7);
    std::vector<std::uint64_t> counts(100, 0);
    for (int i = 0; i < 50000; ++i)
        ++counts[zipf.next(rng)];
    EXPECT_GT(counts[0], counts[1]);
    EXPECT_GT(counts[1], counts[10]);
    EXPECT_GT(counts[10], counts[99]);
}

TEST(ZipfianSampler, GrownDomainMatchesAFreshSampler)
{
    // grow() maintains zeta incrementally; the grown sampler must
    // draw from the same distribution as one built at full size.
    ZipfianSampler grown(100, 0.9);
    for (int i = 0; i < 400; ++i)
        grown.grow();
    ZipfianSampler fresh(500, 0.9);
    ASSERT_EQ(grown.items(), fresh.items());

    Rng rng_a(3);
    Rng rng_b(3);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(grown.next(rng_a), fresh.next(rng_b));
}

// ----------------------------------------------------- mix parsing

TEST(YcsbMix, ParsesCaseInsensitively)
{
    EXPECT_EQ(YcsbWorkload::parseMix("a").value(),
              YcsbWorkload::Mix::A);
    EXPECT_EQ(YcsbWorkload::parseMix("F").value(),
              YcsbWorkload::Mix::F);
    EXPECT_FALSE(YcsbWorkload::parseMix("g").ok());
    EXPECT_FALSE(YcsbWorkload::parseMix("ab").ok());
    EXPECT_FALSE(YcsbWorkload::parseMix("").ok());
    EXPECT_STREQ(YcsbWorkload::mixName(YcsbWorkload::Mix::D), "d");
}

// ------------------------------------------------- mix semantics

YcsbWorkload::Config
smallConfig(YcsbWorkload::Mix mix)
{
    YcsbWorkload::Config config;
    config.mix = mix;
    config.records = 2000;
    return config;
}

double
storeFraction(YcsbWorkload::Mix mix, std::size_t refs = 20000)
{
    YcsbWorkload gen(smallConfig(mix), Rng(11));
    std::size_t stores = 0;
    for (std::size_t i = 0; i < refs; ++i)
        stores += gen.next()->kind == RefKind::Store;
    return static_cast<double>(stores) / refs;
}

TEST(YcsbWorkload, MixCIsReadOnly)
{
    EXPECT_EQ(storeFraction(YcsbWorkload::Mix::C), 0.0);
}

TEST(YcsbWorkload, StoreFractionsTrackTheMixTables)
{
    // A: 50% update ops, every ref of an update is a store.
    EXPECT_NEAR(storeFraction(YcsbWorkload::Mix::A), 0.5, 0.05);
    // B: 5% update ops.
    EXPECT_NEAR(storeFraction(YcsbWorkload::Mix::B), 0.05, 0.02);
    // F: RMW is fieldsPerOp loads + 1 store; reads are loads.
    // Ops are 50/50, so stores/refs = 0.5/(0.5*2 + 0.5*3) = 0.2.
    EXPECT_NEAR(storeFraction(YcsbWorkload::Mix::F), 0.2, 0.04);
}

TEST(YcsbWorkload, InsertingMixesGrowTheKeyspace)
{
    for (auto mix :
         {YcsbWorkload::Mix::D, YcsbWorkload::Mix::E}) {
        const YcsbWorkload::Config config = smallConfig(mix);
        YcsbWorkload gen(config, Rng(13));
        const Addr initial_end =
            config.base + config.records * config.recordBytes;
        bool grew = false;
        for (int i = 0; i < 30000 && !grew; ++i)
            grew = gen.next()->addr >= initial_end;
        EXPECT_TRUE(grew) << YcsbWorkload::mixName(mix);
    }
}

TEST(YcsbWorkload, NonInsertingMixesStayInTheLoadedRange)
{
    for (auto mix : {YcsbWorkload::Mix::A, YcsbWorkload::Mix::B,
                     YcsbWorkload::Mix::C, YcsbWorkload::Mix::F}) {
        const YcsbWorkload::Config config = smallConfig(mix);
        YcsbWorkload gen(config, Rng(17));
        const Addr end =
            config.base + config.records * config.recordBytes;
        for (int i = 0; i < 10000; ++i) {
            const auto ref = *gen.next();
            ASSERT_GE(ref.addr, config.base);
            ASSERT_LT(ref.addr, end);
        }
    }
}

TEST(YcsbWorkload, UniformModeCoversTheKeyspaceEvenly)
{
    YcsbWorkload::Config config = smallConfig(YcsbWorkload::Mix::C);
    config.zipfian = false;
    config.fieldsPerOp = 1;
    YcsbWorkload gen(config, Rng(19));
    std::vector<std::uint64_t> hits(config.records, 0);
    constexpr std::size_t kRefs = 100000;
    for (std::size_t i = 0; i < kRefs; ++i) {
        const std::uint64_t key =
            (gen.next()->addr - config.base) / config.recordBytes;
        ++hits[key];
    }
    // Every key lands near kRefs / records; zipfian would put
    // orders of magnitude more on the head.
    const double expected =
        static_cast<double>(kRefs) / config.records;
    std::uint64_t max_hits = 0;
    for (auto h : hits)
        max_hits = std::max(max_hits, h);
    EXPECT_LT(static_cast<double>(max_hits), expected * 3);
}

TEST(YcsbWorkload, ZipfianModeConcentratesOnHotRecords)
{
    YcsbWorkload::Config config = smallConfig(YcsbWorkload::Mix::C);
    config.fieldsPerOp = 1;
    YcsbWorkload gen(config, Rng(19));
    std::vector<std::uint64_t> hits(config.records, 0);
    constexpr std::size_t kRefs = 100000;
    for (std::size_t i = 0; i < kRefs; ++i) {
        const std::uint64_t key =
            (gen.next()->addr - config.base) / config.recordBytes;
        ++hits[key];
    }
    std::uint64_t max_hits = 0;
    for (auto h : hits)
        max_hits = std::max(max_hits, h);
    const double expected =
        static_cast<double>(kRefs) / config.records;
    EXPECT_GT(static_cast<double>(max_hits), expected * 20);
}

// --------------------------------------------- TraceSource contract

TEST(YcsbWorkload, ResetRewindsInsertsAndRngState)
{
    YcsbWorkload gen(smallConfig(YcsbWorkload::Mix::E), Rng(23));
    const auto head = gen.drain(2000); // includes inserts
    gen.reset();
    EXPECT_EQ(gen.drain(2000), head);
}

TEST(YcsbWorkload, SeedsChangeTheStream)
{
    YcsbWorkload a(smallConfig(YcsbWorkload::Mix::A), Rng(1));
    YcsbWorkload b(smallConfig(YcsbWorkload::Mix::A), Rng(2));
    EXPECT_NE(a.drain(500), b.drain(500));
}

} // namespace
} // namespace uatm
