/**
 * @file
 * Single-ported memory scheduler with an optional read-bypassing
 * write buffer (paper Sec. 4.3).
 *
 * The scheduler owns the notion of "when is the memory busy".
 * Writes (cache-line flushes, write-around stores) are either
 * performed synchronously (no buffer — the CPU stalls for the whole
 * transfer, Eq. 2's flush and W terms) or posted into a FIFO whose
 * entries retire chunk-by-chunk (one D-byte bus cycle at a time)
 * whenever the memory is otherwise idle.  Reads bypass queued
 * chunks but cannot preempt the chunk currently on the bus, so a
 * read waits at most one mu_m on write traffic — which is why the
 * paper can treat buffered flushes as (almost) completely hidden.
 */

#ifndef UATM_MEMORY_WRITE_BUFFER_HH
#define UATM_MEMORY_WRITE_BUFFER_HH

#include <cstdint>
#include <deque>
#include <string>

#include "memory/timing.hh"

namespace uatm::obs {
class StatRegistry;
} // namespace uatm::obs

namespace uatm {

/** Write-buffer configuration. */
struct WriteBufferConfig
{
    /** Number of buffered line/word writes; 0 disables buffering
     *  (writes become synchronous CPU stalls). */
    std::uint32_t depth = 0;

    /** Reads jump ahead of queued write chunks when true;
     *  otherwise a read drains every older write first. */
    bool readBypass = true;
};

/**
 * Arbitration result for a read request.
 */
struct ReadGrant
{
    /** When the transfer actually begins (>= request time). */
    Cycles start = 0;

    /** Cycles the read waited on the write chunk in progress. */
    Cycles busWait = 0;
};

/**
 * Tracks memory occupancy and the pending-write queue.
 */
class MemoryScheduler
{
  public:
    MemoryScheduler(const MemoryTiming &timing,
                    const WriteBufferConfig &wbuf);

    /**
     * A read (line fill) of @p line_bytes requested at time @p now.
     * With readBypass the read jumps queued write chunks, waiting
     * only for the chunk already on the bus; otherwise every older
     * write retires first.  Marks the port busy through the end of
     * the read transfer.
     */
    ReadGrant requestRead(Cycles now, std::uint32_t line_bytes);

    /**
     * A write of @p bytes posted at time @p now.  Returns the cycle
     * at which the CPU may continue:
     *  - no buffer: after the full transfer (synchronous);
     *  - buffered: @p now, unless the buffer is full, in which case
     *    the CPU waits for a slot to free.
     */
    Cycles postWrite(Cycles now, std::uint32_t bytes);

    /** Retire queued write chunks that can start strictly before
     *  @p now. */
    void drainTo(Cycles now);

    /** Force every posted write out; returns the completion time. */
    Cycles drainAllAfter(Cycles now);

    /** Writes (entries, not chunks) still queued. */
    std::size_t pendingWrites() const;

    /** Completion time of the transfer currently using the port. */
    Cycles busyUntil() const { return busyUntil_; }

    /** Total cycles reads spent waiting on the write port. */
    Cycles readWaitCycles() const { return readWaitCycles_; }

    /** Times the CPU stalled because the buffer was full. */
    std::uint64_t bufferFullEvents() const { return fullEvents_; }

    /**
     * Register the scheduler counters (and the write-buffer
     * configuration) under @p prefix, e.g. "wbuf".
     */
    void registerStats(obs::StatRegistry &registry,
                       const std::string &prefix) const;

    /** Reset to idle. */
    void reset();

  private:
    struct PendingWrite
    {
        Cycles postedAt;
        std::uint32_t chunksLeft;
    };

    const MemoryTiming &timing_;
    WriteBufferConfig wbuf_;
    Cycles busyUntil_ = 0;
    std::deque<PendingWrite> queue_;
    Cycles readWaitCycles_ = 0;
    std::uint64_t fullEvents_ = 0;
    std::uint64_t drainedChunks_ = 0;

    Cycles transferTime(std::uint32_t bytes) const;
    std::uint32_t chunksFor(std::uint32_t bytes) const;
};

} // namespace uatm

#endif // UATM_MEMORY_WRITE_BUFFER_HH
