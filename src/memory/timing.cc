/**
 * @file
 * Implementation of the bus/memory timing calculator.
 */

#include "memory/timing.hh"

#include <sstream>

#include "util/logging.hh"

namespace uatm {

Status
MemoryConfig::validate() const
{
    const bool width_ok =
        busWidthBytes == 4 || busWidthBytes == 8 ||
        busWidthBytes == 16 || busWidthBytes == 32;
    if (!width_ok) {
        return Status::invalidArgument(
            "bus width D must be one of {4, 8, 16, 32} bytes, got ",
            busWidthBytes);
    }
    if (cycleTime == 0) {
        return Status::invalidArgument(
            "memory cycle time must be positive");
    }
    if (pipelined && pipelineInterval == 0) {
        return Status::invalidArgument(
            "pipeline interval q must be positive");
    }
    if (pipelined && pipelineInterval > cycleTime) {
        return Status::invalidArgument(
            "pipeline interval q = ", pipelineInterval,
            " exceeds the memory cycle time ", cycleTime,
            "; the pipeline could not sustain its own stages");
    }
    return Status();
}

std::string
MemoryConfig::describe() const
{
    std::ostringstream os;
    os << "D=" << busWidthBytes << "B mu_m=" << cycleTime;
    if (pipelined)
        os << " pipelined q=" << pipelineInterval;
    return os.str();
}

MemoryTiming::MemoryTiming(const MemoryConfig &config)
    : config_(config)
{
    okOrThrow(config_.validate());
}

std::uint32_t
MemoryTiming::chunksPerLine(std::uint32_t line_bytes) const
{
    UATM_ASSERT(line_bytes > 0, "line size must be positive");
    // A transfer smaller than the bus still occupies one cycle.
    return (line_bytes + config_.busWidthBytes - 1) /
           config_.busWidthBytes;
}

Cycles
MemoryTiming::lineTransferTime(std::uint32_t line_bytes) const
{
    const std::uint32_t n = chunksPerLine(line_bytes);
    if (!config_.pipelined)
        return static_cast<Cycles>(n) * config_.cycleTime;
    // Eq. 9: mu_p = mu_m + q(L/D - 1).
    return config_.cycleTime +
           config_.pipelineInterval * static_cast<Cycles>(n - 1);
}

std::vector<Cycles>
MemoryTiming::chunkCompletionTimes(Cycles start,
                                   std::uint32_t line_bytes) const
{
    const std::uint32_t n = chunksPerLine(line_bytes);
    std::vector<Cycles> times(n);
    for (std::uint32_t k = 0; k < n; ++k) {
        if (!config_.pipelined)
            times[k] = start + static_cast<Cycles>(k + 1) *
                                   config_.cycleTime;
        else
            times[k] = start + config_.cycleTime +
                       static_cast<Cycles>(k) *
                           config_.pipelineInterval;
    }
    return times;
}

} // namespace uatm
