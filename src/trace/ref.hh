/**
 * @file
 * The memory-reference record that all trace producers emit and the
 * cache/CPU simulators consume.
 *
 * The paper's model (Sec. 3) characterises an application by the
 * instruction count E and its data-reference behaviour {R, W, alpha};
 * the trace format mirrors that: a stream of data references, each
 * carrying the number of non-memory instructions executed since the
 * previous reference, so E is recoverable and the one-cycle-per-
 * instruction assumption (paper assumption 4) can be applied.
 */

#ifndef UATM_TRACE_REF_HH
#define UATM_TRACE_REF_HH

#include <cstdint>

namespace uatm {

/** Address type: byte addresses in a flat physical space. */
using Addr = std::uint64_t;

/** Kind of a memory reference. */
enum class RefKind : std::uint8_t
{
    Load,   ///< data read
    Store,  ///< data write
    IFetch, ///< instruction fetch (only used by unified-cache studies)
};

/**
 * One data memory reference plus the count of non-memory
 * instructions that execute before it.
 */
struct MemoryReference
{
    /** Byte address of the access. */
    Addr addr = 0;

    /** Non-memory instructions executed since the previous
     *  reference (paper assumption: each takes one cycle). */
    std::uint32_t gap = 0;

    /** Access size in bytes (1, 2, 4 or 8). */
    std::uint8_t size = 4;

    /** Load, store or instruction fetch. */
    RefKind kind = RefKind::Load;

    bool operator==(const MemoryReference &) const = default;
};

/** True when @p size is one of the architected access sizes. */
bool isValidAccessSize(std::uint8_t size);

/** Round @p addr down to a multiple of @p alignment (a power of 2). */
Addr alignDown(Addr addr, std::uint64_t alignment);

} // namespace uatm

#endif // UATM_TRACE_REF_HH
