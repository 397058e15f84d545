/**
 * @file
 * Implementation of reference-record helpers.
 */

#include "trace/ref.hh"

#include "util/logging.hh"

namespace uatm {

bool
isValidAccessSize(std::uint8_t size)
{
    return size == 1 || size == 2 || size == 4 || size == 8;
}

Addr
alignDown(Addr addr, std::uint64_t alignment)
{
    UATM_ASSERT(alignment != 0 && (alignment & (alignment - 1)) == 0,
                "alignment must be a power of two, got ", alignment);
    return addr & ~(alignment - 1);
}

} // namespace uatm
