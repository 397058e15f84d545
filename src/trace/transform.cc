/**
 * @file
 * Implementation of the trace transformations.
 */

#include "trace/transform.hh"

#include "util/logging.hh"

namespace uatm {

// --------------------------------------------------------------------
// OffsetSource
// --------------------------------------------------------------------

OffsetSource::OffsetSource(std::unique_ptr<TraceSource> inner,
                           std::int64_t offset_bytes)
    : inner_(std::move(inner)), offset_(offset_bytes)
{
    UATM_ASSERT(inner_ != nullptr, "offset needs a source");
}

std::optional<MemoryReference>
OffsetSource::next()
{
    auto ref = inner_->next();
    if (!ref)
        return std::nullopt;
    ref->addr = static_cast<Addr>(
        static_cast<std::int64_t>(ref->addr) + offset_);
    return ref;
}

void
OffsetSource::reset()
{
    inner_->reset();
}

// --------------------------------------------------------------------
// SampleSource
// --------------------------------------------------------------------

SampleSource::SampleSource(std::unique_ptr<TraceSource> inner,
                           std::uint32_t period)
    : inner_(std::move(inner)), period_(period)
{
    UATM_ASSERT(inner_ != nullptr, "sampler needs a source");
    UATM_ASSERT(period_ >= 1, "sampling period must be >= 1");
}

std::optional<MemoryReference>
SampleSource::next()
{
    // Drop period-1 references, accumulating their instruction
    // counts (gap + the reference itself) into the survivor.
    std::uint64_t folded = 0;
    for (std::uint32_t i = 0; i + 1 < period_; ++i) {
        auto dropped = inner_->next();
        if (!dropped)
            break;
        folded += static_cast<std::uint64_t>(dropped->gap) + 1;
    }
    auto ref = inner_->next();
    if (!ref)
        return std::nullopt;
    const std::uint64_t gap =
        static_cast<std::uint64_t>(ref->gap) + folded;
    ref->gap = gap > 0xffffffffull
                   ? 0xffffffffu
                   : static_cast<std::uint32_t>(gap);
    return ref;
}

void
SampleSource::reset()
{
    inner_->reset();
}

// --------------------------------------------------------------------
// KindFilterSource
// --------------------------------------------------------------------

KindFilterSource::KindFilterSource(
    std::unique_ptr<TraceSource> inner, bool keep_loads,
    bool keep_stores, bool keep_ifetch)
    : inner_(std::move(inner)), keepLoads_(keep_loads),
      keepStores_(keep_stores), keepIFetch_(keep_ifetch)
{
    UATM_ASSERT(inner_ != nullptr, "filter needs a source");
    UATM_ASSERT(keep_loads || keep_stores || keep_ifetch,
                "the filter would drop everything");
}

std::optional<MemoryReference>
KindFilterSource::next()
{
    while (auto ref = inner_->next()) {
        const bool keep =
            (ref->kind == RefKind::Load && keepLoads_) ||
            (ref->kind == RefKind::Store && keepStores_) ||
            (ref->kind == RefKind::IFetch && keepIFetch_);
        if (keep)
            return ref;
    }
    return std::nullopt;
}

void
KindFilterSource::reset()
{
    inner_->reset();
}

// --------------------------------------------------------------------
// TimeSliceSource
// --------------------------------------------------------------------

TimeSliceSource::TimeSliceSource(
    std::vector<std::unique_ptr<TraceSource>> sources,
    std::uint64_t quantum, std::uint32_t switch_gap)
    : sources_(std::move(sources)), quantum_(quantum),
      switchGap_(switch_gap)
{
    UATM_ASSERT(!sources_.empty(), "time slicing needs programs");
    for (const auto &source : sources_)
        UATM_ASSERT(source != nullptr, "null program source");
    UATM_ASSERT(quantum_ >= 1, "quantum must be >= 1");
}

std::optional<MemoryReference>
TimeSliceSource::next()
{
    for (std::size_t attempts = 0; attempts <= sources_.size();
         ++attempts) {
        if (emitted_ >= quantum_) {
            emitted_ = 0;
            current_ = (current_ + 1) % sources_.size();
            pendingSwitch_ = true;
        }
        auto ref = sources_[current_]->next();
        if (!ref) {
            emitted_ = quantum_; // force rotation
            continue;
        }
        ++emitted_;
        if (pendingSwitch_) {
            // Charge the context-switch overhead to the first
            // reference of the new quantum.
            const std::uint64_t gap =
                static_cast<std::uint64_t>(ref->gap) + switchGap_;
            ref->gap = gap > 0xffffffffull
                           ? 0xffffffffu
                           : static_cast<std::uint32_t>(gap);
            pendingSwitch_ = false;
        }
        return ref;
    }
    return std::nullopt;
}

void
TimeSliceSource::reset()
{
    for (auto &source : sources_)
        source->reset();
    current_ = 0;
    emitted_ = 0;
    pendingSwitch_ = false;
}

} // namespace uatm
