/**
 * @file
 * Cache geometry and policy configuration.
 */

#ifndef UATM_CACHE_CONFIG_HH
#define UATM_CACHE_CONFIG_HH

#include <cstdint>
#include <string>

#include "util/status.hh"

namespace uatm {

/**
 * How write misses are handled (paper Sec. 3.1): WriteAllocate reads
 * the line in before writing (store misses contribute to R, W = 0);
 * WriteAround sends the write to memory without allocating (store
 * misses contribute to W).
 */
enum class WriteMissPolicy : std::uint8_t
{
    WriteAllocate,
    WriteAround,
};

/** Write-hit handling. */
enum class WritePolicy : std::uint8_t
{
    WriteBack,    ///< dirty lines flushed on eviction (paper default)
    WriteThrough, ///< every store also goes to memory
};

/** Replacement policy selector. */
enum class ReplacementKind : std::uint8_t
{
    LRU,
    FIFO,
    Random,
    TreePLRU,
};

const char *writeMissPolicyName(WriteMissPolicy policy);
const char *writePolicyName(WritePolicy policy);
const char *replacementKindName(ReplacementKind kind);

/**
 * Geometry + policies of one cache.  The paper's Figure 1 runs use
 * 8 KB, 2-way, 32-byte lines, write-allocate, write-back.
 */
struct CacheConfig
{
    /** The most lines one cache may hold, 2^22: a 64 MiB line
     *  array at 16 B a line, and 256x the 16384 lines of the largest
     *  cache a program sweeps (512 KiB of 32 B lines).  validate()
     *  refuses a larger cache, naming its size, before anything is
     *  allocated. */
    static constexpr std::uint64_t kMaxLines = std::uint64_t{1} << 22;

    std::uint64_t sizeBytes = 8 * 1024;
    std::uint32_t assoc = 2;
    std::uint32_t lineBytes = 32;
    WriteMissPolicy writeMiss = WriteMissPolicy::WriteAllocate;
    WritePolicy write = WritePolicy::WriteBack;
    ReplacementKind replacement = ReplacementKind::LRU;
    /** Seed for the Random replacement policy. */
    std::uint64_t replacementSeed = 1;

    /** Number of sets implied by the geometry. */
    std::uint64_t numSets() const;

    /** Total lines in the cache. */
    std::uint64_t numLines() const;

    /** OK when the geometry is realisable (powers of two, assoc
     *  divides capacity, line >= 4 bytes, at most kMaxLines
     *  lines); InvalidArgument with the first violation otherwise. */
    Status validate() const;

    /** "8KB 2-way 32B WA/WB LRU" style summary. */
    std::string describe() const;
};

} // namespace uatm

#endif // UATM_CACHE_CONFIG_HH
