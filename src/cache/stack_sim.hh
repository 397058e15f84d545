/**
 * @file
 * Single-pass multi-geometry cache simulation (Mattson et al.'s
 * stack algorithm, specialised to LRU + write-allocate).
 *
 * One traversal of a reference stream yields the exact hit/miss
 * (and write-back) counts of *every* cache in a set-count x
 * associativity grid that shares the line size and write policies.
 * The reduction: for true LRU with allocate-on-miss, the contents
 * of an (S sets, A ways) cache are exactly the A most recently
 * touched distinct lines of each set — so an access whose per-set
 * LRU stack distance is d hits in every geometry with A > d and
 * misses in every geometry with A <= d.  A histogram of distances
 * per set count therefore prices the whole associativity axis at
 * once, and one per-set stack per *distinct* set count prices the
 * size axis.
 *
 * Dirty state rides along with a single small integer per stack
 * entry: under write-back, "dirty in (S, A)" is monotone in A (a
 * larger A means the line was filled earlier, so it has seen every
 * store a smaller A has), so the minimum associativity at which the
 * line is dirty fully describes all grid geometries.
 *
 * Set refinement (Hill & Smith) makes one search per reference
 * enough in most cases.  Set counts are powers of two and a line's
 * set is picked by the low bits of its index, so each set at a
 * larger count holds a subset of the lines of one set at every
 * smaller count.  A line that is most recently used (MRU) in its
 * set at count S is therefore MRU at every larger count: distance 0
 * there, a hit in every grid geometry, with nothing to shift or
 * evict.  The engine visits set counts from the smallest up and
 * stops at the first one where the line is MRU; a write-back store
 * that stops there only marks the MRU entries dirty.
 *
 * The engine's results are bit-equal to running SetAssocCache per
 * geometry (see tests/test_random_validation.cc);
 * exp::runGeometrySweep, the one geometry-sweep driver, dispatches
 * to it when the base config qualifies (stackSimIneligibleReason()).
 */

#ifndef UATM_CACHE_STACK_SIM_HH
#define UATM_CACHE_STACK_SIM_HH

#include <cstdint>
#include <vector>

#include "cache/cache.hh"
#include "cache/config.hh"
#include "trace/source.hh"
#include "util/status.hh"

namespace uatm {

/**
 * The geometry cross product one pass prices: every (setCount x
 * assoc) pair, all sharing one line size and one write policy.
 * Replacement is implicitly LRU — that is what makes the stack
 * reduction exact.
 */
struct GeometryGrid
{
    std::uint32_t lineBytes = 32;

    /** Distinct set counts (each a power of two, deduplicated). */
    std::vector<std::uint64_t> setCounts;

    /** Distinct associativities (deduplicated; any order). */
    std::vector<std::uint32_t> assocs;

    WritePolicy write = WritePolicy::WriteBack;

    /** Must be WriteAllocate: write-around store misses do not
     *  touch LRU state, which breaks the inclusion property the
     *  engine relies on. */
    WriteMissPolicy writeMiss = WriteMissPolicy::WriteAllocate;

    /** Add the (numSets, assoc) cell of @p config, deduplicating.
     *  The config's line size and policies must match the grid. */
    void addConfig(const CacheConfig &config);

    /** OK when every field is simulatable (powers of two, at
     *  least one cell, write-allocate). */
    Status validate() const;
};

/**
 * The per-geometry statistics produced by one pass.  Each cell
 * reconstructs a full CacheStats bit-equal to what SetAssocCache
 * would have counted for that geometry over the same stream.
 */
class GeometryHitSurface
{
  public:
    GeometryHitSurface() = default;
    GeometryHitSurface(const GeometryGrid &grid,
                       std::vector<CacheStats> cells);

    const GeometryGrid &grid() const { return grid_; }

    /** Stats of @p config's geometry; InvalidArgument when the
     *  config is invalid, mismatches the grid's line size or
     *  policies, or its cell is not in the grid. */
    Expected<CacheStats> statsFor(const CacheConfig &config) const;

    /**
     * The post-warmup window: each cell's CacheStats::since its
     * cell in @p warm, the same subtraction runCacheSim makes.
     */
    GeometryHitSurface minus(const GeometryHitSurface &warm) const;

  private:
    GeometryGrid grid_;
    std::vector<CacheStats> cells_; ///< [space * assocs + assocIdx]

    std::size_t cellIndex(std::uint64_t sets,
                          std::uint32_t assoc) const;
};

/**
 * The engine proper.  Feed it references (in trace order), then
 * ask for the surface; runStackSim() below wraps the common case.
 */
class StackSimulator
{
  public:
    /** Throws StatusError when the grid fails validate(). */
    explicit StackSimulator(const GeometryGrid &grid);

    /** Apply one reference to every grid geometry at once.  An
     *  access wider than a line throws StatusError
     *  (InvalidArgument). */
    void access(const MemoryReference &ref);

    /** Apply @p count references from @p refs in order. */
    void accessBatch(const MemoryReference *refs, std::size_t count);

    /** Current cumulative per-geometry statistics. */
    GeometryHitSurface surface() const;

    /** The simulated grid, its set counts in ascending order. */
    const GeometryGrid &grid() const { return grid_; }

    /**
     * Set counts the references so far entered: a reference stops
     * at the first count where its line is already MRU, so this is
     * at most accesses x set counts.  Deterministic for a stream.
     */
    std::uint64_t spaceVisits() const { return spaceVisits_; }

  private:
    /** One line of a per-set recency stack.  minDirtyAssoc is the
     *  smallest grid associativity at which the line is dirty
     *  (maxAssoc_+1 = clean in every geometry); dirtiness is
     *  monotone non-decreasing in A, so one threshold suffices.
     *  An empty way holds {~Addr(0), maxAssoc_+1}: no line index
     *  reaches ~0 (addresses shift right by at least 2), so it never
     *  matches, and it is clean, so its eviction is no write-back. */
    struct StackEntry
    {
        Addr line;
        std::uint32_t minDirtyAssoc;
    };

    /** The state for one distinct set count.  spaces_ holds them
     *  in ascending set-count order, the order access() visits. */
    struct SetSpace
    {
        std::uint64_t sets = 0;
        std::uint64_t setMask = 0;
        /** MRU-first truncated stacks: [set * maxAssoc_ + depth],
         *  full ways first, empty ways after them. */
        std::vector<StackEntry> entries;
        /** Distance histograms, one slot per distance 0..maxAssoc_
         *  (the last slot pools every distance >= maxAssoc_, which
         *  misses in all grid geometries).  Slot 0 stays 0: a
         *  reference at distance 0 stops before it is counted, and
         *  it hits at every associativity, so surface() never
         *  reads it. */
        std::vector<std::uint64_t> loadHist;
        std::vector<std::uint64_t> storeHist;
        /** Write-backs per grid associativity (ascending order). */
        std::vector<std::uint64_t> writebacks;
    };

    GeometryGrid grid_;
    std::uint32_t lineShift_ = 0;
    std::uint32_t maxAssoc_ = 0;
    /** Grid associativities sorted ascending (for early exit). */
    std::vector<std::uint32_t> ascAssocs_;
    std::vector<SetSpace> spaces_;

    // Geometry-independent counters (identical in every cell).
    std::uint64_t accesses_ = 0;
    std::uint64_t loads_ = 0;
    std::uint64_t stores_ = 0;
    std::uint64_t instructions_ = 0;
    std::uint64_t storeBytes_ = 0;

    std::uint64_t spaceVisits_ = 0;
};

/**
 * Run @p refs references of @p source (reset first) through one
 * stack-simulation pass — the single-pass counterpart of calling
 * runCacheSim once per grid cell, with identical warmup-window
 * semantics.  Consumes the source via fillBatch.
 */
GeometryHitSurface runStackSim(const GeometryGrid &grid,
                               TraceSource &source,
                               std::uint64_t refs,
                               std::uint64_t warmup_refs = 0);

/**
 * nullptr when @p base qualifies for the single-pass engine on a
 * size sweep (LRU replacement, write-allocate); otherwise a static
 * string naming the first disqualifying property.
 */
const char *stackSimIneligibleReason(const CacheConfig &base);

} // namespace uatm

#endif // UATM_CACHE_STACK_SIM_HH
