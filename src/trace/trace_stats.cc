/**
 * @file
 * Implementation of the workload profiler.
 */

#include "trace/trace_stats.hh"

#include <sstream>

#include "util/logging.hh"

namespace uatm {

WorkloadProfile::WorkloadProfile(std::uint64_t footprint_block)
    : footprintBlock_(footprint_block)
{
    UATM_ASSERT(footprint_block != 0 &&
                (footprint_block & (footprint_block - 1)) == 0,
                "footprint block must be a power of two");
}

void
WorkloadProfile::add(const MemoryReference &ref)
{
    ++refs_;
    instructions_ += static_cast<std::uint64_t>(ref.gap) + 1;
    switch (ref.kind) {
      case RefKind::Load:
        ++loads_;
        break;
      case RefKind::Store:
        ++stores_;
        break;
      case RefKind::IFetch:
        break;
    }
    blocks_.insert(alignDown(ref.addr, footprintBlock_));
}

void
WorkloadProfile::consume(TraceSource &source, std::uint64_t max_refs)
{
    BatchPump(source).pumpTo(
        max_refs, [&](const MemoryReference *refs, std::size_t count) {
            for (std::size_t i = 0; i < count; ++i)
                add(refs[i]);
        });
}

std::uint64_t
WorkloadProfile::footprintBlocks() const
{
    return blocks_.size();
}

std::uint64_t
WorkloadProfile::footprintBytes() const
{
    return blocks_.size() * footprintBlock_;
}

double
WorkloadProfile::memoryReferenceDensity() const
{
    if (instructions_ == 0)
        return 0.0;
    return static_cast<double>(loads_ + stores_) /
           static_cast<double>(instructions_);
}

double
WorkloadProfile::storeFraction() const
{
    const std::uint64_t data = loads_ + stores_;
    if (data == 0)
        return 0.0;
    return static_cast<double>(stores_) / static_cast<double>(data);
}

std::string
WorkloadProfile::format(const std::string &name) const
{
    std::ostringstream os;
    os << "workload " << name << ":\n"
       << "  references       = " << refs_ << '\n'
       << "  loads            = " << loads_ << '\n'
       << "  stores           = " << stores_ << '\n'
       << "  instructions (E) = " << instructions_ << '\n'
       << "  footprint        = " << footprintBytes() << " bytes ("
       << footprintBlocks() << " x " << footprintBlock_ << "B)\n"
       << "  mem-ref density  = " << memoryReferenceDensity() << '\n'
       << "  store fraction   = " << storeFraction() << '\n';
    return os.str();
}

} // namespace uatm
