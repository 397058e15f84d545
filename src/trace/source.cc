/**
 * @file
 * Implementation of the trace container and source adaptors.
 */

#include "trace/source.hh"

#include <algorithm>
#include <cstring>

#include "util/logging.hh"

namespace uatm {

std::vector<MemoryReference>
TraceSource::drain(std::size_t max_refs)
{
    std::vector<MemoryReference> out;
    out.reserve(max_refs);
    BatchPump(*this).pumpTo(
        max_refs, [&](const MemoryReference *refs, std::size_t n) {
            out.insert(out.end(), refs, refs + n);
        });
    return out;
}

Trace::Trace(std::vector<MemoryReference> refs)
    : refs_(std::move(refs))
{
}

void
Trace::append(const MemoryReference &ref)
{
    UATM_ASSERT(isValidAccessSize(ref.size),
                "invalid access size ", int(ref.size));
    refs_.push_back(ref);
}

const MemoryReference &
Trace::at(std::size_t i) const
{
    UATM_ASSERT(i < refs_.size(), "trace index ", i, " out of range");
    return refs_[i];
}

std::uint64_t
Trace::instructionCount() const
{
    std::uint64_t total = 0;
    for (const auto &ref : refs_)
        total += static_cast<std::uint64_t>(ref.gap) + 1;
    return total;
}

std::uint64_t
Trace::countKind(RefKind kind) const
{
    std::uint64_t n = 0;
    for (const auto &ref : refs_)
        n += ref.kind == kind;
    return n;
}

namespace {

/** fillBatch() of a cursor at @p cursor over @p refs: one memcpy. */
std::size_t
copyAt(const std::vector<MemoryReference> &refs, std::size_t &cursor,
       MemoryReference *out, std::size_t max_refs)
{
    const std::size_t count = std::min(max_refs, refs.size() - cursor);
    if (count > 0)
        std::memcpy(out, refs.data() + cursor,
                    count * sizeof(MemoryReference));
    cursor += count;
    return count;
}

} // namespace

std::size_t
Trace::fillBatch(MemoryReference *out, std::size_t max_refs)
{
    return copyAt(refs_, cursor_, out, max_refs);
}

SharedTraceCursor::SharedTraceCursor(std::shared_ptr<const Trace> trace)
    : trace_(std::move(trace))
{
    UATM_ASSERT(trace_, "SharedTraceCursor over no trace");
}

std::size_t
SharedTraceCursor::fillBatch(MemoryReference *out, std::size_t max_refs)
{
    return copyAt(trace_->refs(), cursor_, out, max_refs);
}

} // namespace uatm
