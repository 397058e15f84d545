/**
 * @file
 * Memory-system timing: bus width D, memory cycle time mu_m per
 * D-byte transfer, and the pipelined option with issue interval q
 * (paper Eq. 9: mu_p = mu_m + q(L/D - 1)).
 */

#ifndef UATM_MEMORY_TIMING_HH
#define UATM_MEMORY_TIMING_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.hh"

namespace uatm {

/** Cycle counts are in CPU clock cycles. */
using Cycles = std::uint64_t;

/**
 * Timing parameters of the external bus + memory system.
 */
struct MemoryConfig
{
    /** Processor external data bus width D in bytes (4..32). */
    std::uint32_t busWidthBytes = 4;

    /** Memory cycle time mu_m: CPU cycles per D-byte read/write. */
    Cycles cycleTime = 8;

    /** Pipelined memory system (Sec. 4.4). */
    bool pipelined = false;

    /** Cycles before the pipelined memory accepts the next request
     *  (q in Eq. 9); q = 2 is the paper's "best implementation". */
    Cycles pipelineInterval = 2;

    /** OK when widths/cycles are sane; InvalidArgument otherwise. */
    Status validate() const;

    /** "D=4 mu_m=8 (pipelined q=2)" style summary. */
    std::string describe() const;
};

/**
 * Pure timing calculator for line transfers on the bus.
 */
class MemoryTiming
{
  public:
    /** Throws StatusError when @p config fails validate(). */
    explicit MemoryTiming(const MemoryConfig &config);

    const MemoryConfig &config() const { return config_; }

    /** Number of D-byte chunks in an @p line_bytes transfer. */
    std::uint32_t chunksPerLine(std::uint32_t line_bytes) const;

    /**
     * Total bus occupancy of an @p line_bytes transfer:
     * non-pipelined (L/D)*mu_m; pipelined mu_m + q(L/D - 1).
     */
    Cycles lineTransferTime(std::uint32_t line_bytes) const;

    /** Occupancy of a single <= D-byte transfer: mu_m either way. */
    Cycles singleTransferTime() const { return config_.cycleTime; }

    /**
     * Completion time of each chunk of a line transfer that starts
     * at @p start, in transfer order (element 0 = first chunk
     * delivered).  Non-pipelined chunk k completes at
     * start + (k+1)*mu_m; pipelined at start + mu_m + k*q.
     */
    std::vector<Cycles> chunkCompletionTimes(
        Cycles start, std::uint32_t line_bytes) const;

  private:
    MemoryConfig config_;
};

} // namespace uatm

#endif // UATM_MEMORY_TIMING_HH
