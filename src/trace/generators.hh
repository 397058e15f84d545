/**
 * @file
 * Synthetic workload generators.
 *
 * The paper obtained its stalling factors and hit ratios from
 * trace-driven simulation of six SPEC92 programs (nasa7, swm256,
 * wave5, ear, doduc, hydro2d; 50M instructions each).  Those traces
 * are not redistributable, so this module provides parametric
 * generators whose outputs span the same locality regimes:
 *
 *  - StrideGenerator / LoopNestGenerator: the dense-array spatial
 *    locality of the FP codes (nasa7, swm256, hydro2d);
 *  - WorkingSetGenerator: tunable temporal locality via an LRU-stack
 *    distance model, which pins the hit ratio of a given cache;
 *  - PointerChaseGenerator: the irregular access streams that make
 *    partially-stalling caches earn (or fail to earn) their keep;
 *  - PhaseMixGenerator: program phase behaviour.
 *
 * Figure 1's stalling factor depends on the distribution of the gap
 * between a miss and the next access to the in-flight line, which
 * these generators control directly (see DESIGN.md, substitutions).
 */

#ifndef UATM_TRACE_GENERATORS_HH
#define UATM_TRACE_GENERATORS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/lru_stack.hh"
#include "trace/source.hh"
#include "util/random.hh"

namespace uatm {

/**
 * Uniform-random gap model: non-memory instructions between
 * consecutive data references.
 */
struct GapModel
{
    /** Minimum gap (inclusive). */
    std::uint32_t min = 1;
    /** Maximum gap (inclusive). */
    std::uint32_t max = 3;

    /** Draw one gap. */
    std::uint32_t sample(Rng &rng) const;
};

/**
 * Endless walk over an array with a fixed stride.
 *
 * Models unit- and non-unit-stride vector sweeps (swm256-like).
 */
class StrideGenerator : public TraceSource
{
  public:
    struct Config
    {
        Addr base = 0x10000;             ///< array base address
        std::uint64_t elements = 1 << 16; ///< elements per pass
        std::uint32_t elemSize = 8;      ///< access size in bytes
        std::int64_t strideBytes = 8;    ///< distance between accesses
        double storeFraction = 0.25;     ///< P(reference is a store)
        GapModel gap;                    ///< inter-reference gaps
    };

    StrideGenerator(const Config &config, Rng rng);

    std::optional<MemoryReference> next() override;
    void reset() override;
    std::size_t fillBatch(MemoryReference *out,
                          std::size_t max_refs) override;

  private:
    Config config_;
    Rng rng_;
    Rng initialRng_;
    std::uint64_t index_ = 0;
};

/**
 * Three-array dense kernel: per iteration, load A[i], load B[i],
 * store C[i], in row-major order over a 2-D iteration space, with a
 * configurable column stride (hydro2d/nasa7-like).
 */
class LoopNestGenerator : public TraceSource
{
  public:
    struct Config
    {
        /** Bases are deliberately staggered by non-power-of-two
         *  offsets so the three arrays do not alias to the same
         *  cache sets (as real allocators also avoid). */
        Addr baseA = 0x100000;
        Addr baseB = 0x504980;
        Addr baseC = 0x90a340;
        std::uint64_t rows = 256;
        std::uint64_t cols = 256;
        std::uint32_t elemSize = 8;
        /** true walks row-major (unit stride), false column-major. */
        bool rowMajor = true;
        GapModel gap;
    };

    LoopNestGenerator(const Config &config, Rng rng);

    std::optional<MemoryReference> next() override;
    void reset() override;
    std::size_t fillBatch(MemoryReference *out,
                          std::size_t max_refs) override;

  private:
    Config config_;
    Rng rng_;
    Rng initialRng_;
    std::uint64_t row_ = 0;
    std::uint64_t col_ = 0;
    /** 0 = load A, 1 = load B, 2 = store C. */
    int leg_ = 0;

    Addr elementAddr(Addr base) const;
    void advanceIteration();
};

/**
 * Random pointer chase through a pool of nodes (doduc-like
 * irregular traffic).  Each step loads a node; with some
 * probability it also stores to it.
 */
class PointerChaseGenerator : public TraceSource
{
  public:
    struct Config
    {
        Addr base = 0x2000000;
        std::uint64_t nodes = 1 << 14;  ///< pool size
        std::uint32_t nodeSize = 64;    ///< bytes per node
        std::uint32_t accessSize = 8;
        double storeFraction = 0.1;
        /** Extra loads of adjacent fields in the same node
         *  (spatial locality inside a node). */
        std::uint32_t fieldsPerVisit = 2;
        GapModel gap;
    };

    PointerChaseGenerator(const Config &config, Rng rng);

    std::optional<MemoryReference> next() override;
    void reset() override;
    std::size_t fillBatch(MemoryReference *out,
                          std::size_t max_refs) override;

  private:
    Config config_;
    Rng rng_;
    Rng initialRng_;
    std::vector<std::uint32_t> successor_; ///< random permutation
    std::uint64_t node_ = 0;
    std::uint32_t field_ = 0;

    void buildPermutation();
};

/**
 * LRU-stack-distance workload: references hit a managed stack of
 * line-granular addresses with geometrically decaying reuse
 * probability, so the hit ratio of a cache of a given size is
 * directly tunable via (stackDepth, decay, coldFraction).
 */
class WorkingSetGenerator : public TraceSource
{
  public:
    struct Config
    {
        Addr base = 0x4000000;
        /** Granularity at which reuse happens (typically a line). */
        std::uint32_t blockBytes = 32;
        /** Depth of the hot LRU stack. */
        std::size_t stackDepth = 512;
        /** Geometric decay of reuse probability with stack depth. */
        double decay = 0.99;
        /** P(reference starts a brand-new block: compulsory miss). */
        double coldFraction = 0.02;
        /** P(a new block is adjacent to the last new block, which
         *  creates spatial locality visible to larger lines). */
        double sequentialFraction = 0.7;
        std::uint32_t accessSize = 4;
        double storeFraction = 0.3;
        GapModel gap;
    };

    WorkingSetGenerator(const Config &config, Rng rng);

    std::optional<MemoryReference> next() override;
    void reset() override;
    std::size_t fillBatch(MemoryReference *out,
                          std::size_t max_refs) override;

  private:
    Config config_;
    Rng rng_;
    Rng initialRng_;
    /** Always holds exactly stackDepth blocks once seeded. */
    LruStack stack_;
    StackDistanceSampler reuseDepth_;
    std::uint64_t wordsPerBlock_;
    Addr nextFresh_;           ///< bump allocator for new blocks
    Addr lastNew_ = 0;

    void seedStack();
    Addr takeNewBlock();
};

/**
 * Cycles through a list of child generators, emitting a fixed
 * number of references from each before moving on, to model the
 * phase behaviour of real programs.
 */
class PhaseMixGenerator : public TraceSource
{
  public:
    struct Phase
    {
        std::unique_ptr<TraceSource> source;
        std::uint64_t length; ///< references per visit to this phase
    };

    explicit PhaseMixGenerator(std::vector<Phase> phases);

    std::optional<MemoryReference> next() override;
    void reset() override;
    std::size_t fillBatch(MemoryReference *out,
                          std::size_t max_refs) override;

  private:
    std::vector<Phase> phases_;
    std::size_t current_ = 0;
    std::uint64_t emitted_ = 0;
};

/**
 * Multi-scale working-set mix whose cache-size -> hit-ratio curve
 * rises smoothly through the 4K-128K range, mirroring the Short &
 * Levy curve the paper's Example 1 quotes (8K ~ 91 %, 32K ~ 95.5 %).
 */
struct ShortLevyWorkload
{
    /** Build the mix; deterministic from the seed. */
    static std::unique_ptr<TraceSource> make(std::uint64_t seed);
};

/**
 * Named SPEC92-like workload profiles.
 *
 * Each profile is a PhaseMixGenerator tuned so an 8 KB 2-way
 * write-allocate cache with 32-byte lines sees a hit ratio in the
 * low-to-mid 90s, matching the regime of the paper's Figure 1 runs.
 */
struct Spec92Profile
{
    /** The six program names used in the paper's Figure 1. */
    static const std::vector<std::string> &names();

    /** Build the named profile; an unknown name throws a
     *  StatusError (NotFound). */
    static std::unique_ptr<TraceSource> make(const std::string &name,
                                             std::uint64_t seed);
};

} // namespace uatm

#endif // UATM_TRACE_GENERATORS_HH
