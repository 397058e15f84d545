/**
 * @file
 * Implementation of cache-configuration helpers.
 */

#include "cache/config.hh"

#include <sstream>

#include "util/logging.hh"

namespace uatm {

namespace {

bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

const char *
writeMissPolicyName(WriteMissPolicy policy)
{
    switch (policy) {
      case WriteMissPolicy::WriteAllocate:
        return "write-allocate";
      case WriteMissPolicy::WriteAround:
        return "write-around";
    }
    panic("unknown WriteMissPolicy");
}

const char *
writePolicyName(WritePolicy policy)
{
    switch (policy) {
      case WritePolicy::WriteBack:
        return "write-back";
      case WritePolicy::WriteThrough:
        return "write-through";
    }
    panic("unknown WritePolicy");
}

const char *
replacementKindName(ReplacementKind kind)
{
    switch (kind) {
      case ReplacementKind::LRU:
        return "LRU";
      case ReplacementKind::FIFO:
        return "FIFO";
      case ReplacementKind::Random:
        return "Random";
      case ReplacementKind::TreePLRU:
        return "TreePLRU";
    }
    panic("unknown ReplacementKind");
}

std::uint64_t
CacheConfig::numSets() const
{
    return sizeBytes / (static_cast<std::uint64_t>(assoc) * lineBytes);
}

std::uint64_t
CacheConfig::numLines() const
{
    return sizeBytes / lineBytes;
}

Status
CacheConfig::validate() const
{
    if (!isPow2(sizeBytes)) {
        return Status::invalidArgument("cache size ", sizeBytes,
                                       " is not a power of two");
    }
    if (!isPow2(lineBytes) || lineBytes < 4) {
        return Status::invalidArgument(
            "line size ", lineBytes, " must be a power of two >= 4");
    }
    if (numLines() > kMaxLines) {
        return Status::invalidArgument(
            "cache size ", sizeBytes, " with ", lineBytes,
            "-byte lines is ", numLines(), " lines, more than the ",
            kMaxLines, " one cache may hold");
    }
    if (assoc == 0)
        return Status::invalidArgument("associativity must be positive");
    const std::uint64_t way_bytes =
        static_cast<std::uint64_t>(assoc) * lineBytes;
    if (sizeBytes % way_bytes != 0) {
        return Status::invalidArgument(
            "cache size ", sizeBytes,
            " is not a multiple of assoc*line = ", way_bytes);
    }
    if (!isPow2(numSets())) {
        return Status::invalidArgument("number of sets ", numSets(),
                                       " is not a power of two");
    }
    if (replacement == ReplacementKind::TreePLRU && !isPow2(assoc)) {
        return Status::invalidArgument(
            "TreePLRU requires a power-of-two associativity, got ",
            assoc);
    }
    return Status();
}

std::string
CacheConfig::describe() const
{
    std::ostringstream os;
    if (sizeBytes % 1024 == 0)
        os << sizeBytes / 1024 << "KB";
    else
        os << sizeBytes << "B";
    os << ' ' << assoc << "-way " << lineBytes << "B lines, "
       << writeMissPolicyName(writeMiss) << ", "
       << writePolicyName(write) << ", "
       << replacementKindName(replacement);
    return os.str();
}

} // namespace uatm
