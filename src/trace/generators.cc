/**
 * @file
 * Implementation of the synthetic workload generators.
 */

#include "trace/generators.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/status.hh"

namespace uatm {

std::uint32_t
GapModel::sample(Rng &rng) const
{
    UATM_ASSERT(min <= max, "gap model has min > max");
    if (min == max)
        return min;
    return static_cast<std::uint32_t>(
        rng.nextInRange(min, max));
}

// --------------------------------------------------------------------
// StrideGenerator
// --------------------------------------------------------------------

StrideGenerator::StrideGenerator(const Config &config, Rng rng)
    : config_(config), rng_(rng), initialRng_(rng)
{
    UATM_ASSERT(config_.elements > 0, "stride array must be non-empty");
    UATM_ASSERT(isValidAccessSize(
                    static_cast<std::uint8_t>(config_.elemSize)),
                "bad element size ", config_.elemSize);
}

std::optional<MemoryReference>
StrideGenerator::next()
{
    MemoryReference ref;
    const std::uint64_t pos = index_ % config_.elements;
    const auto offset = static_cast<std::int64_t>(pos) *
                        config_.strideBytes;
    ref.addr = static_cast<Addr>(
        static_cast<std::int64_t>(config_.base) + offset);
    ref.addr = alignDown(ref.addr, config_.elemSize);
    ref.size = static_cast<std::uint8_t>(config_.elemSize);
    ref.kind = rng_.nextBool(config_.storeFraction) ? RefKind::Store
                                                    : RefKind::Load;
    ref.gap = config_.gap.sample(rng_);
    ++index_;
    return ref;
}

void
StrideGenerator::reset()
{
    rng_ = initialRng_;
    index_ = 0;
}

std::size_t
StrideGenerator::fillBatch(MemoryReference *out,
                           std::size_t max_refs)
{
    // Endless stream; the qualified call devirtualises next().
    for (std::size_t i = 0; i < max_refs; ++i)
        out[i] = *StrideGenerator::next();
    return max_refs;
}

// --------------------------------------------------------------------
// LoopNestGenerator
// --------------------------------------------------------------------

LoopNestGenerator::LoopNestGenerator(const Config &config, Rng rng)
    : config_(config), rng_(rng), initialRng_(rng)
{
    UATM_ASSERT(config_.rows > 0 && config_.cols > 0,
                "loop nest must have a non-empty iteration space");
}

Addr
LoopNestGenerator::elementAddr(Addr base) const
{
    const std::uint64_t linear =
        config_.rowMajor ? row_ * config_.cols + col_
                         : col_ * config_.rows + row_;
    return base + linear * config_.elemSize;
}

void
LoopNestGenerator::advanceIteration()
{
    if (++col_ >= config_.cols) {
        col_ = 0;
        if (++row_ >= config_.rows)
            row_ = 0;
    }
}

std::optional<MemoryReference>
LoopNestGenerator::next()
{
    MemoryReference ref;
    ref.size = static_cast<std::uint8_t>(config_.elemSize);
    ref.gap = config_.gap.sample(rng_);
    switch (leg_) {
      case 0:
        ref.addr = elementAddr(config_.baseA);
        ref.kind = RefKind::Load;
        leg_ = 1;
        break;
      case 1:
        ref.addr = elementAddr(config_.baseB);
        ref.kind = RefKind::Load;
        leg_ = 2;
        break;
      default:
        ref.addr = elementAddr(config_.baseC);
        ref.kind = RefKind::Store;
        leg_ = 0;
        advanceIteration();
        break;
    }
    return ref;
}

void
LoopNestGenerator::reset()
{
    rng_ = initialRng_;
    row_ = col_ = 0;
    leg_ = 0;
}

std::size_t
LoopNestGenerator::fillBatch(MemoryReference *out,
                             std::size_t max_refs)
{
    for (std::size_t i = 0; i < max_refs; ++i)
        out[i] = *LoopNestGenerator::next();
    return max_refs;
}

// --------------------------------------------------------------------
// PointerChaseGenerator
// --------------------------------------------------------------------

PointerChaseGenerator::PointerChaseGenerator(const Config &config,
                                             Rng rng)
    : config_(config), rng_(rng), initialRng_(rng)
{
    UATM_ASSERT(config_.nodes >= 2, "chase pool needs >= 2 nodes");
    UATM_ASSERT(config_.accessSize <= config_.nodeSize,
                "access size exceeds node size");
    buildPermutation();
}

void
PointerChaseGenerator::buildPermutation()
{
    // Sattolo's algorithm yields a single cycle covering every node,
    // so the chase never collapses into a short loop.
    Rng perm_rng = initialRng_;
    successor_.resize(config_.nodes);
    std::vector<std::uint32_t> order(config_.nodes);
    for (std::uint64_t i = 0; i < config_.nodes; ++i)
        order[i] = static_cast<std::uint32_t>(i);
    for (std::uint64_t i = config_.nodes - 1; i > 0; --i) {
        const auto j = perm_rng.nextBelow(i);
        std::swap(order[i], order[j]);
    }
    for (std::uint64_t i = 0; i < config_.nodes; ++i)
        successor_[order[i]] = order[(i + 1) % config_.nodes];
}

std::optional<MemoryReference>
PointerChaseGenerator::next()
{
    MemoryReference ref;
    ref.size = static_cast<std::uint8_t>(config_.accessSize);
    ref.gap = config_.gap.sample(rng_);

    const Addr node_base =
        config_.base + static_cast<Addr>(node_) * config_.nodeSize;
    const std::uint32_t field_offset =
        (field_ * config_.accessSize) %
        std::max<std::uint32_t>(config_.nodeSize, config_.accessSize);
    ref.addr = alignDown(node_base + field_offset, config_.accessSize);
    ref.kind = rng_.nextBool(config_.storeFraction) ? RefKind::Store
                                                    : RefKind::Load;

    if (++field_ > config_.fieldsPerVisit) {
        field_ = 0;
        node_ = successor_[node_];
    }
    return ref;
}

void
PointerChaseGenerator::reset()
{
    rng_ = initialRng_;
    node_ = 0;
    field_ = 0;
}

std::size_t
PointerChaseGenerator::fillBatch(MemoryReference *out,
                                 std::size_t max_refs)
{
    for (std::size_t i = 0; i < max_refs; ++i)
        out[i] = *PointerChaseGenerator::next();
    return max_refs;
}

// --------------------------------------------------------------------
// WorkingSetGenerator
// --------------------------------------------------------------------

WorkingSetGenerator::WorkingSetGenerator(const Config &config, Rng rng)
    : config_(config), rng_(rng), initialRng_(rng),
      stack_(config.stackDepth),
      reuseDepth_(config.stackDepth, config.decay),
      wordsPerBlock_(std::max<std::uint64_t>(
          config.blockBytes / config.accessSize, 1)),
      nextFresh_(config.base)
{
    UATM_ASSERT(config_.coldFraction >= 0.0 &&
                config_.coldFraction <= 1.0,
                "cold fraction must be a probability");
    seedStack();
}

void
WorkingSetGenerator::seedStack()
{
    stack_.clear();
    nextFresh_ = config_.base;
    for (std::size_t i = 0; i < config_.stackDepth; ++i) {
        stack_.pushBottom(nextFresh_);
        nextFresh_ += config_.blockBytes;
    }
    lastNew_ = nextFresh_ - config_.blockBytes; // the deepest block
}

Addr
WorkingSetGenerator::takeNewBlock()
{
    Addr block;
    if (rng_.nextBool(config_.sequentialFraction)) {
        block = lastNew_ + config_.blockBytes;
    } else {
        block = nextFresh_;
        // Advance by a random, odd block count so scattered
        // allocations spread across all cache sets instead of
        // resonating with a power-of-two set count.
        nextFresh_ += (65 + 2 * rng_.nextBelow(32)) *
                      config_.blockBytes;
    }
    lastNew_ = block;
    return block;
}

std::optional<MemoryReference>
WorkingSetGenerator::next()
{
    Addr block;
    if (rng_.nextBool(config_.coldFraction)) {
        // A run of sequential blocks can overtake the bump
        // allocator, so a "new" block may still be on the stack:
        // this (rare) path looks it up.
        block = takeNewBlock();
        stack_.touch(block);
    } else {
        // The sampled depth is the block's position: no scan.
        block = stack_.promote(reuseDepth_(rng_));
    }

    MemoryReference ref;
    ref.addr = block + rng_.nextBelow(wordsPerBlock_) *
                           config_.accessSize;
    ref.size = static_cast<std::uint8_t>(config_.accessSize);
    ref.kind = rng_.nextBool(config_.storeFraction) ? RefKind::Store
                                                    : RefKind::Load;
    ref.gap = config_.gap.sample(rng_);
    return ref;
}

void
WorkingSetGenerator::reset()
{
    rng_ = initialRng_;
    seedStack();
}

std::size_t
WorkingSetGenerator::fillBatch(MemoryReference *out,
                               std::size_t max_refs)
{
    for (std::size_t i = 0; i < max_refs; ++i)
        out[i] = *WorkingSetGenerator::next();
    return max_refs;
}

// --------------------------------------------------------------------
// PhaseMixGenerator
// --------------------------------------------------------------------

PhaseMixGenerator::PhaseMixGenerator(std::vector<Phase> phases)
    : phases_(std::move(phases))
{
    UATM_ASSERT(!phases_.empty(), "phase mix needs at least one phase");
    for (const auto &phase : phases_) {
        UATM_ASSERT(phase.source != nullptr, "null phase source");
        UATM_ASSERT(phase.length > 0, "phase length must be positive");
    }
}

std::optional<MemoryReference>
PhaseMixGenerator::next()
{
    // A child may be finite; skip exhausted phases, giving each at
    // most one chance per call to avoid an infinite loop when all
    // children are exhausted.
    for (std::size_t attempts = 0; attempts < phases_.size();
         ++attempts) {
        Phase &phase = phases_[current_];
        if (emitted_ >= phase.length) {
            emitted_ = 0;
            current_ = (current_ + 1) % phases_.size();
            continue;
        }
        auto ref = phase.source->next();
        if (!ref) {
            emitted_ = 0;
            current_ = (current_ + 1) % phases_.size();
            continue;
        }
        ++emitted_;
        return ref;
    }
    return std::nullopt;
}

std::size_t
PhaseMixGenerator::fillBatch(MemoryReference *out,
                             std::size_t max_refs)
{
    std::size_t produced = 0;
    // Phase visits since the last emitted reference; next() gives
    // each reference at most phases_.size() of them, and matching
    // that exactly keeps fillBatch equivalent to repeated next()
    // even on quota boundaries and exhausted children.
    std::size_t attempts = 0;
    while (produced < max_refs && attempts < phases_.size()) {
        Phase &phase = phases_[current_];
        if (emitted_ >= phase.length) {
            emitted_ = 0;
            current_ = (current_ + 1) % phases_.size();
            ++attempts;
            continue;
        }
        const auto want = static_cast<std::size_t>(
            std::min<std::uint64_t>(phase.length - emitted_,
                                    max_refs - produced));
        const std::size_t got =
            phase.source->fillBatch(out + produced, want);
        produced += got;
        emitted_ += got;
        if (got > 0)
            attempts = 0;
        if (got < want) {
            // Child exhausted mid-run: advance, like next() would
            // on its next nullopt.
            emitted_ = 0;
            current_ = (current_ + 1) % phases_.size();
            ++attempts;
        }
    }
    return produced;
}

void
PhaseMixGenerator::reset()
{
    for (auto &phase : phases_)
        phase.source->reset();
    current_ = 0;
    emitted_ = 0;
}

// --------------------------------------------------------------------
// ShortLevyWorkload
// --------------------------------------------------------------------

std::unique_ptr<TraceSource>
ShortLevyWorkload::make(std::uint64_t seed)
{
    Rng rng(seed ^ 0x517a11e5c0ffee00ull);

    // Three working sets at ~3 KB / ~14 KB / ~83 KB footprints;
    // the phase weights put the knee of the hit-ratio curve in
    // the 8K-32K range, like the trace-driven curve of [14].
    WorkingSetGenerator::Config hot;
    hot.stackDepth = 96;
    hot.decay = 0.96;
    hot.coldFraction = 0.001;
    hot.storeFraction = 0.3;
    hot.gap = {1, 3};

    WorkingSetGenerator::Config mid;
    mid.base = 0x8000000;
    mid.stackDepth = 450;
    mid.decay = 0.994;
    mid.coldFraction = 0.002;
    mid.storeFraction = 0.3;
    mid.gap = {1, 3};

    WorkingSetGenerator::Config big;
    big.base = 0x10000000;
    big.stackDepth = 2600;
    big.decay = 0.9988;
    big.coldFraction = 0.002;
    big.storeFraction = 0.3;
    big.gap = {1, 3};

    std::vector<PhaseMixGenerator::Phase> phases;
    phases.push_back(PhaseMixGenerator::Phase{
        std::make_unique<WorkingSetGenerator>(hot, rng.fork()),
        1700});
    phases.push_back(PhaseMixGenerator::Phase{
        std::make_unique<WorkingSetGenerator>(mid, rng.fork()),
        120});
    phases.push_back(PhaseMixGenerator::Phase{
        std::make_unique<WorkingSetGenerator>(big, rng.fork()),
        80});
    return std::make_unique<PhaseMixGenerator>(std::move(phases));
}

// --------------------------------------------------------------------
// Spec92Profile
// --------------------------------------------------------------------

const std::vector<std::string> &
Spec92Profile::names()
{
    static const std::vector<std::string> all = {
        "nasa7", "swm256", "wave5", "ear", "doduc", "hydro2d",
    };
    return all;
}

namespace {

/** Shorthand for building a phase. */
PhaseMixGenerator::Phase
phase(std::unique_ptr<TraceSource> src, std::uint64_t len)
{
    return PhaseMixGenerator::Phase{std::move(src), len};
}

std::unique_ptr<TraceSource>
makeNasa7(Rng &rng)
{
    // Dense matrix kernels: long unit-stride sweeps over several
    // large arrays plus a hot working set of reused blocks.
    LoopNestGenerator::Config nest;
    nest.rows = 200;
    nest.cols = 256;
    nest.elemSize = 8;
    nest.gap = {1, 3};

    WorkingSetGenerator::Config hot;
    hot.stackDepth = 160;
    hot.decay = 0.975;
    hot.coldFraction = 0.004;
    hot.storeFraction = 0.3;
    hot.gap = {1, 3};

    std::vector<PhaseMixGenerator::Phase> phases;
    phases.push_back(phase(std::make_unique<LoopNestGenerator>(
                               nest, rng.fork()), 6000));
    phases.push_back(phase(std::make_unique<WorkingSetGenerator>(
                               hot, rng.fork()), 14000));
    return std::make_unique<PhaseMixGenerator>(std::move(phases));
}

std::unique_ptr<TraceSource>
makeSwm256(Rng &rng)
{
    // Shallow-water: stride-1 sweeps over a handful of 256x256
    // grids; very high spatial locality, modest temporal locality.
    StrideGenerator::Config sweep;
    sweep.elements = 256 * 256;
    sweep.elemSize = 8;
    sweep.strideBytes = 8;
    sweep.storeFraction = 0.33;
    sweep.gap = {1, 3};

    WorkingSetGenerator::Config hot;
    hot.stackDepth = 240;
    hot.decay = 0.985;
    hot.coldFraction = 0.002;
    hot.gap = {1, 2};

    std::vector<PhaseMixGenerator::Phase> phases;
    phases.push_back(phase(std::make_unique<StrideGenerator>(
                               sweep, rng.fork()), 4000));
    phases.push_back(phase(std::make_unique<WorkingSetGenerator>(
                               hot, rng.fork()), 16000));
    return std::make_unique<PhaseMixGenerator>(std::move(phases));
}

std::unique_ptr<TraceSource>
makeWave5(Rng &rng)
{
    // Particle-in-cell: strided grid sweeps (non-unit stride) mixed
    // with scattered particle updates.
    StrideGenerator::Config grid;
    grid.elements = 1 << 15;
    grid.elemSize = 8;
    grid.strideBytes = 16; // two-field records, touch one field
    grid.storeFraction = 0.3;
    grid.gap = {1, 4};

    WorkingSetGenerator::Config particles;
    particles.stackDepth = 200;
    particles.decay = 0.97;
    particles.coldFraction = 0.006;
    particles.storeFraction = 0.4;
    particles.gap = {1, 3};

    std::vector<PhaseMixGenerator::Phase> phases;
    phases.push_back(phase(std::make_unique<StrideGenerator>(
                               grid, rng.fork()), 2000));
    phases.push_back(phase(std::make_unique<WorkingSetGenerator>(
                               particles, rng.fork()), 14000));
    return std::make_unique<PhaseMixGenerator>(std::move(phases));
}

std::unique_ptr<TraceSource>
makeEar(Rng &rng)
{
    // Cochlea model: small hot working set, very high temporal
    // locality, few cold misses.
    WorkingSetGenerator::Config hot;
    hot.stackDepth = 120;
    hot.decay = 0.96;
    hot.coldFraction = 0.0015;
    hot.storeFraction = 0.25;
    hot.accessSize = 4;
    hot.gap = {2, 4};

    StrideGenerator::Config filt;
    filt.elements = 2048;
    filt.elemSize = 4;
    filt.strideBytes = 4;
    filt.storeFraction = 0.2;
    filt.gap = {2, 4};

    std::vector<PhaseMixGenerator::Phase> phases;
    phases.push_back(phase(std::make_unique<WorkingSetGenerator>(
                               hot, rng.fork()), 15000));
    phases.push_back(phase(std::make_unique<StrideGenerator>(
                               filt, rng.fork()), 5000));
    return std::make_unique<PhaseMixGenerator>(std::move(phases));
}

std::unique_ptr<TraceSource>
makeDoduc(Rng &rng)
{
    // Monte-Carlo reactor code: irregular, branchy; pointer-chase
    // style traffic over a medium pool plus a hot scalar region.
    PointerChaseGenerator::Config chase;
    chase.nodes = 1 << 12;
    chase.nodeSize = 64;
    chase.accessSize = 8;
    chase.fieldsPerVisit = 3;
    chase.storeFraction = 0.15;
    chase.gap = {1, 4};

    WorkingSetGenerator::Config hot;
    hot.stackDepth = 100;
    hot.decay = 0.95;
    hot.coldFraction = 0.003;
    hot.storeFraction = 0.3;
    hot.gap = {1, 3};

    std::vector<PhaseMixGenerator::Phase> phases;
    phases.push_back(phase(std::make_unique<PointerChaseGenerator>(
                               chase, rng.fork()), 5000));
    phases.push_back(phase(std::make_unique<WorkingSetGenerator>(
                               hot, rng.fork()), 11000));
    return std::make_unique<PhaseMixGenerator>(std::move(phases));
}

std::unique_ptr<TraceSource>
makeHydro2d(Rng &rng)
{
    // Hydrodynamics: column-major sweeps (bad stride) alternating
    // with row-major ones over 2-D grids.
    LoopNestGenerator::Config rows;
    rows.rows = 128;
    rows.cols = 512;
    rows.elemSize = 8;
    rows.rowMajor = true;
    rows.gap = {1, 2};

    LoopNestGenerator::Config cols;
    cols.rows = 128;
    cols.cols = 512;
    cols.elemSize = 8;
    cols.rowMajor = false;
    cols.gap = {1, 2};

    WorkingSetGenerator::Config hot;
    hot.stackDepth = 200;
    hot.decay = 0.98;
    hot.coldFraction = 0.003;
    hot.gap = {1, 2};

    std::vector<PhaseMixGenerator::Phase> phases;
    phases.push_back(phase(std::make_unique<LoopNestGenerator>(
                               rows, rng.fork()), 3600));
    phases.push_back(phase(std::make_unique<WorkingSetGenerator>(
                               hot, rng.fork()), 15600));
    phases.push_back(phase(std::make_unique<LoopNestGenerator>(
                               cols, rng.fork()), 600));
    return std::make_unique<PhaseMixGenerator>(std::move(phases));
}

} // namespace

std::unique_ptr<TraceSource>
Spec92Profile::make(const std::string &name, std::uint64_t seed)
{
    Rng rng(seed ^ 0xa1b2c3d4e5f60718ull);
    if (name == "nasa7")
        return makeNasa7(rng);
    if (name == "swm256")
        return makeSwm256(rng);
    if (name == "wave5")
        return makeWave5(rng);
    if (name == "ear")
        return makeEar(rng);
    if (name == "doduc")
        return makeDoduc(rng);
    if (name == "hydro2d")
        return makeHydro2d(rng);
    throw StatusError(Status::notFound(
        "unknown SPEC92-like profile '", name, "'"));
}

} // namespace uatm
