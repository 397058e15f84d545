/**
 * @file
 * Implementation of the single-pass stack-distance engine.
 */

#include "cache/stack_sim.hh"

#include <algorithm>
#include <bit>

#include "obs/profile.hh"
#include "util/logging.hh"

namespace uatm {

namespace {

bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

// --------------------------------------------------------------------
// GeometryGrid
// --------------------------------------------------------------------

void
GeometryGrid::addConfig(const CacheConfig &config)
{
    UATM_ASSERT(config.lineBytes == lineBytes,
                "grid line size ", lineBytes,
                " != config line size ", config.lineBytes);
    UATM_ASSERT(config.write == write &&
                    config.writeMiss == writeMiss,
                "config write policies mismatch the grid");
    const std::uint64_t sets = config.numSets();
    if (std::find(setCounts.begin(), setCounts.end(), sets) ==
        setCounts.end())
        setCounts.push_back(sets);
    if (std::find(assocs.begin(), assocs.end(), config.assoc) ==
        assocs.end())
        assocs.push_back(config.assoc);
}

Status
GeometryGrid::validate() const
{
    if (lineBytes < 4 || !isPow2(lineBytes))
        return Status::invalidArgument(
            "grid line size ", lineBytes,
            " is not a power of two >= 4");
    if (setCounts.empty())
        return Status::invalidArgument("grid has no set counts");
    if (assocs.empty())
        return Status::invalidArgument(
            "grid has no associativities");
    for (std::uint64_t sets : setCounts) {
        if (!isPow2(sets))
            return Status::invalidArgument(
                "grid set count ", sets,
                " is not a power of two");
    }
    for (std::uint32_t assoc : assocs) {
        if (assoc == 0)
            return Status::invalidArgument(
                "grid associativity must be positive");
    }
    if (writeMiss != WriteMissPolicy::WriteAllocate)
        return Status::invalidArgument(
            "the stack engine requires write-allocate "
            "(write-around misses bypass LRU state)");
    return Status();
}

// --------------------------------------------------------------------
// GeometryHitSurface
// --------------------------------------------------------------------

GeometryHitSurface::GeometryHitSurface(const GeometryGrid &grid,
                                       std::vector<CacheStats> cells)
    : grid_(grid), cells_(std::move(cells))
{
    UATM_ASSERT(cells_.size() ==
                    grid_.setCounts.size() * grid_.assocs.size(),
                "surface cell count mismatches the grid");
}

std::size_t
GeometryHitSurface::cellIndex(std::uint64_t sets,
                              std::uint32_t assoc) const
{
    const auto space = std::find(grid_.setCounts.begin(),
                                 grid_.setCounts.end(), sets);
    const auto way = std::find(grid_.assocs.begin(),
                               grid_.assocs.end(), assoc);
    if (space == grid_.setCounts.end() ||
        way == grid_.assocs.end())
        return cells_.size();
    return static_cast<std::size_t>(space -
                                    grid_.setCounts.begin()) *
               grid_.assocs.size() +
           static_cast<std::size_t>(way - grid_.assocs.begin());
}

Expected<CacheStats>
GeometryHitSurface::statsFor(const CacheConfig &config) const
{
    if (Status status = config.validate(); !status.ok())
        return status;
    if (config.lineBytes != grid_.lineBytes ||
        config.write != grid_.write ||
        config.writeMiss != grid_.writeMiss)
        return Status::invalidArgument(
            "config line size or write policies mismatch the "
            "simulated grid");
    if (config.replacement != ReplacementKind::LRU)
        return Status::invalidArgument(
            "the surface models LRU replacement only");
    const std::size_t index =
        cellIndex(config.numSets(), config.assoc);
    if (index >= cells_.size())
        return Status::notFound("geometry (", config.numSets(),
                                " sets, ", config.assoc,
                                "-way) is not in the grid");
    return cells_[index];
}

GeometryHitSurface
GeometryHitSurface::minus(const GeometryHitSurface &warm) const
{
    UATM_ASSERT(cells_.size() == warm.cells_.size(),
                "surface subtraction over mismatched grids");
    std::vector<CacheStats> cells;
    cells.reserve(cells_.size());
    for (std::size_t i = 0; i < cells_.size(); ++i)
        cells.push_back(cells_[i].since(warm.cells_[i]));
    return GeometryHitSurface(grid_, std::move(cells));
}

// --------------------------------------------------------------------
// StackSimulator
// --------------------------------------------------------------------

StackSimulator::StackSimulator(const GeometryGrid &grid)
    : grid_(grid)
{
    okOrThrow(grid_.validate());
    lineShift_ = static_cast<std::uint32_t>(std::countr_zero(
        static_cast<std::uint64_t>(grid_.lineBytes)));
    maxAssoc_ =
        *std::max_element(grid_.assocs.begin(), grid_.assocs.end());
    ascAssocs_ = grid_.assocs;
    std::sort(ascAssocs_.begin(), ascAssocs_.end());
    // Smallest set count first: the order access() refines in.
    std::sort(grid_.setCounts.begin(), grid_.setCounts.end());

    spaces_.resize(grid_.setCounts.size());
    for (std::size_t i = 0; i < spaces_.size(); ++i) {
        SetSpace &space = spaces_[i];
        space.sets = grid_.setCounts[i];
        space.setMask = space.sets - 1;
        space.entries.assign(space.sets * maxAssoc_,
                             StackEntry{~Addr(0), maxAssoc_ + 1});
        space.loadHist.assign(maxAssoc_ + 1, 0);
        space.storeHist.assign(maxAssoc_ + 1, 0);
        space.writebacks.assign(ascAssocs_.size(), 0);
    }
}

void
StackSimulator::access(const MemoryReference &ref)
{
    // Same input contract as SetAssocCache::access.
    UATM_ASSERT(isValidAccessSize(ref.size),
                "invalid access size ", int(ref.size));
    if (ref.size > grid_.lineBytes) [[unlikely]]
        throwAccessWiderThanLine(ref.size, grid_.lineBytes);

    const Addr line = ref.addr >> lineShift_;
    const bool is_store = ref.kind == RefKind::Store;

    ++accesses_;
    instructions_ += static_cast<std::uint64_t>(ref.gap) + 1;
    if (is_store) {
        ++stores_;
        storeBytes_ += ref.size;
    } else {
        ++loads_;
    }

    const bool write_back = grid_.write == WritePolicy::WriteBack;
    const std::uint32_t clean = maxAssoc_ + 1;

    for (std::size_t i = 0; i < spaces_.size(); ++i) {
        SetSpace &space = spaces_[i];
        StackEntry *ways =
            &space.entries[(line & space.setMask) * maxAssoc_];

        if (ways[0].line == line) {
            // MRU here, so MRU in this and every larger space (set
            // refinement): distance 0, a hit at every A, nothing
            // shifts and nothing is evicted.  A write-back store
            // dirties the MRU entry at every A.  A line MRU at S
            // and at 2S is dirty at (2S, A) whenever it is at
            // (S, A), since (2S, A) filled it no later, so the
            // walk stops at the first entry already dirty at A=1.
            spaceVisits_ += i + 1;
            if (write_back && is_store) {
                for (std::size_t j = i; j < spaces_.size(); ++j) {
                    SetSpace &larger = spaces_[j];
                    StackEntry &mru =
                        larger.entries[(line & larger.setMask) *
                                       maxAssoc_];
                    if (mru.minDirtyAssoc == 1)
                        break;
                    mru.minDirtyAssoc = 1;
                }
            }
            return;
        }

        // Distance = lines of this set touched since the last
        // access to `line` (clamped: >= maxAssoc_ misses in every
        // grid geometry).  Hit in (S, A) iff distance < A.
        std::uint32_t dist = 1;
        while (dist < maxAssoc_ && ways[dist].line != line)
            ++dist;
        const bool found = dist < maxAssoc_;
        ++(is_store ? space.storeHist : space.loadHist)[dist];

        // The access moves `line` to depth 1; entries at depths
        // 1..dist each sink one step, and the one at depth A
        // leaves geometry (S, A)'s resident top-A.  Count the
        // write-back when the evictee is dirty at that A (an empty
        // way is clean at every A).
        if (write_back) {
            for (std::size_t k = 0; k < ascAssocs_.size(); ++k) {
                const std::uint32_t assoc = ascAssocs_[k];
                if (assoc > dist)
                    break;
                if (ways[assoc - 1].minDirtyAssoc <= assoc)
                    ++space.writebacks[k];
            }
        }

        // New dirty threshold for `line` at depth 1:
        //  - store: hit (A > dist) dirties, and a write-allocate
        //    store fill (A <= dist) dirties too -> dirty for all A;
        //  - load hit region (A > dist): prior state carries over;
        //  - load fill region (A <= dist): filled clean.
        std::uint32_t min_dirty;
        if (!write_back)
            min_dirty = clean; // write-through never dirties
        else if (is_store)
            min_dirty = 1;
        else if (found)
            min_dirty = std::max(ways[dist].minDirtyAssoc, dist + 1);
        else
            min_dirty = clean;

        for (std::uint32_t d = found ? dist : maxAssoc_ - 1; d > 0;
             --d)
            ways[d] = ways[d - 1];
        ways[0] = StackEntry{line, min_dirty};
    }
    spaceVisits_ += spaces_.size();
}

void
StackSimulator::accessBatch(const MemoryReference *refs,
                            std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i)
        access(refs[i]);
}

GeometryHitSurface
StackSimulator::surface() const
{
    const bool write_back = grid_.write == WritePolicy::WriteBack;
    std::vector<CacheStats> cells;
    cells.reserve(grid_.setCounts.size() * grid_.assocs.size());

    for (const SetSpace &space : spaces_) {
        for (std::uint32_t assoc : grid_.assocs) {
            CacheStats stats;
            stats.accesses = accesses_;
            stats.loads = loads_;
            stats.stores = stores_;
            stats.instructions = instructions_;

            // Misses = accesses at distance >= assoc (clamped
            // histogram: the pool slot maxAssoc_ is >= assoc too).
            std::uint64_t load_misses = 0;
            std::uint64_t store_misses = 0;
            for (std::uint32_t d = std::min(assoc, maxAssoc_);
                 d <= maxAssoc_; ++d) {
                load_misses += space.loadHist[d];
                store_misses += space.storeHist[d];
            }
            stats.loadMisses = load_misses;
            stats.storeMisses = store_misses;
            stats.misses = load_misses + store_misses;
            stats.hits = stats.accesses - stats.misses;
            // Write-allocate: every miss demand-fills a line.
            stats.fills = stats.misses;

            if (write_back) {
                const auto k = static_cast<std::size_t>(
                    std::find(ascAssocs_.begin(), ascAssocs_.end(),
                              assoc) -
                    ascAssocs_.begin());
                stats.writebacks = space.writebacks[k];
            } else {
                // Write-through: every store (hit or filled miss)
                // goes to memory; nothing is ever dirty.
                stats.storesToMemory = stores_;
                stats.storesToMemoryBytes = storeBytes_;
            }
            cells.push_back(stats);
        }
    }
    return GeometryHitSurface(grid_, std::move(cells));
}

// --------------------------------------------------------------------
// runStackSim
// --------------------------------------------------------------------

GeometryHitSurface
runStackSim(const GeometryGrid &grid, TraceSource &source,
            std::uint64_t refs, std::uint64_t warmup_refs)
{
    UATM_PROFILE_SCOPE("cache.stack_sim");
    UATM_ASSERT(warmup_refs <= refs,
                "warmup longer than the whole run");
    source.reset();
    StackSimulator sim(grid);

    BatchPump pump(source);
    const auto access = [&](const MemoryReference *batch,
                            std::size_t count) {
        sim.accessBatch(batch, count);
    };
    pump.pumpTo(warmup_refs, access);
    // Measure only the post-warmup window.
    const GeometryHitSurface warm = sim.surface();
    pump.pumpTo(refs, access);
    return sim.surface().minus(warm);
}

const char *
stackSimIneligibleReason(const CacheConfig &base)
{
    if (base.replacement != ReplacementKind::LRU)
        return "replacement policy is not LRU";
    if (base.writeMiss != WriteMissPolicy::WriteAllocate)
        return "write-miss policy is not write-allocate";
    return nullptr;
}

} // namespace uatm
