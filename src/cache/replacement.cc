/**
 * @file
 * Implementation of the replacement policies.
 */

#include "cache/replacement.hh"

#include "util/logging.hh"

namespace uatm {

std::unique_ptr<ReplacementPolicy>
ReplacementPolicy::create(const CacheConfig &config)
{
    const std::uint64_t sets = config.numSets();
    switch (config.replacement) {
      case ReplacementKind::LRU:
        return std::make_unique<LruPolicy>(sets, config.assoc);
      case ReplacementKind::FIFO:
        return std::make_unique<FifoPolicy>(sets, config.assoc);
      case ReplacementKind::Random:
        return std::make_unique<RandomPolicy>(config.assoc,
                                              config.replacementSeed);
      case ReplacementKind::TreePLRU:
        return std::make_unique<TreePlruPolicy>(sets, config.assoc);
    }
    panic("unknown ReplacementKind");
}

// --------------------------------------------------------------------
// LruPolicy
// --------------------------------------------------------------------

LruPolicy::LruPolicy(std::uint64_t sets, std::uint32_t assoc)
    : assoc_(assoc), stamps_(sets * assoc, 0)
{
}

void
LruPolicy::touch(std::uint64_t set, std::uint32_t way)
{
    stamps_[set * assoc_ + way] = ++clock_;
}

std::uint32_t
LruPolicy::victim(std::uint64_t set)
{
    std::uint32_t oldest = 0;
    std::uint64_t best = stamps_[set * assoc_];
    for (std::uint32_t w = 1; w < assoc_; ++w) {
        const std::uint64_t stamp = stamps_[set * assoc_ + w];
        if (stamp < best) {
            best = stamp;
            oldest = w;
        }
    }
    return oldest;
}

void
LruPolicy::reset()
{
    std::fill(stamps_.begin(), stamps_.end(), 0);
    clock_ = 0;
}

// --------------------------------------------------------------------
// FifoPolicy
// --------------------------------------------------------------------

FifoPolicy::FifoPolicy(std::uint64_t sets, std::uint32_t assoc)
    : assoc_(assoc), nextOut_(sets, 0)
{
}

void
FifoPolicy::touch(std::uint64_t, std::uint32_t)
{
    // FIFO order is insertion order; hits do not reorder.
}

std::uint32_t
FifoPolicy::victim(std::uint64_t set)
{
    const std::uint32_t way = nextOut_[set];
    nextOut_[set] = (way + 1) % assoc_;
    return way;
}

void
FifoPolicy::reset()
{
    std::fill(nextOut_.begin(), nextOut_.end(), 0);
}

// --------------------------------------------------------------------
// RandomPolicy
// --------------------------------------------------------------------

RandomPolicy::RandomPolicy(std::uint32_t assoc, std::uint64_t seed)
    : assoc_(assoc), seed_(seed), rng_(seed)
{
}

void
RandomPolicy::touch(std::uint64_t, std::uint32_t)
{
}

std::uint32_t
RandomPolicy::victim(std::uint64_t)
{
    return static_cast<std::uint32_t>(rng_.nextBelow(assoc_));
}

void
RandomPolicy::reset()
{
    rng_ = Rng(seed_);
}

// --------------------------------------------------------------------
// TreePlruPolicy
// --------------------------------------------------------------------

TreePlruPolicy::TreePlruPolicy(std::uint64_t sets, std::uint32_t assoc)
    : assoc_(assoc), levels_(0),
      bits_(sets * (assoc > 1 ? assoc - 1 : 1), false)
{
    UATM_ASSERT(assoc != 0 && (assoc & (assoc - 1)) == 0,
                "TreePLRU needs power-of-two associativity");
    for (std::uint32_t a = assoc; a > 1; a >>= 1)
        ++levels_;
}

std::size_t
TreePlruPolicy::bitIndex(std::uint64_t set, std::uint32_t node) const
{
    return set * (assoc_ > 1 ? assoc_ - 1 : 1) + node;
}

void
TreePlruPolicy::touch(std::uint64_t set, std::uint32_t way)
{
    if (assoc_ == 1)
        return;
    // Walk from the root, flipping each node away from the touched
    // way so the pseudo-LRU path points elsewhere.
    std::uint32_t node = 0;
    for (std::uint32_t level = 0; level < levels_; ++level) {
        const std::uint32_t bit =
            (way >> (levels_ - 1 - level)) & 1u;
        bits_[bitIndex(set, node)] = bit == 0;
        node = 2 * node + 1 + bit;
    }
}

std::uint32_t
TreePlruPolicy::victim(std::uint64_t set)
{
    if (assoc_ == 1)
        return 0;
    std::uint32_t node = 0;
    std::uint32_t way = 0;
    for (std::uint32_t level = 0; level < levels_; ++level) {
        const bool go_right = bits_[bitIndex(set, node)];
        way = (way << 1) | (go_right ? 1u : 0u);
        node = 2 * node + 1 + (go_right ? 1u : 0u);
    }
    return way;
}

void
TreePlruPolicy::reset()
{
    std::fill(bits_.begin(), bits_.end(), false);
}

} // namespace uatm
