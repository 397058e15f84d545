/**
 * @file
 * Per-set replacement policies for the set-associative cache model.
 */

#ifndef UATM_CACHE_REPLACEMENT_HH
#define UATM_CACHE_REPLACEMENT_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/config.hh"
#include "util/random.hh"

namespace uatm {

/**
 * Victim selection and recency tracking across all sets.
 *
 * The cache fills a set's invalid ways itself, lowest way first,
 * and asks for a victim only when a fill finds every way of the set
 * valid.  So a policy chooses among valid lines only, and draws no
 * random number and moves no pointer while a set is still filling.
 */
class ReplacementPolicy
{
  public:
    virtual ~ReplacementPolicy() = default;

    /** Record a hit or fill touching (set, way). */
    virtual void touch(std::uint64_t set, std::uint32_t way) = 0;

    /** Choose the way to evict in @p set, whose ways are all
     *  valid. */
    virtual std::uint32_t victim(std::uint64_t set) = 0;

    /** Clear all state. */
    virtual void reset() = 0;

    /** Factory from a configuration. */
    static std::unique_ptr<ReplacementPolicy>
    create(const CacheConfig &config);
};

/** True least-recently-used via per-set recency stamps. */
class LruPolicy : public ReplacementPolicy
{
  public:
    LruPolicy(std::uint64_t sets, std::uint32_t assoc);
    void touch(std::uint64_t set, std::uint32_t way) override;
    std::uint32_t victim(std::uint64_t set) override;
    void reset() override;

  private:
    std::uint32_t assoc_;
    std::uint64_t clock_ = 0;
    std::vector<std::uint64_t> stamps_; ///< [set * assoc + way]
};

/** Round-robin eviction order, insertion-driven. */
class FifoPolicy : public ReplacementPolicy
{
  public:
    FifoPolicy(std::uint64_t sets, std::uint32_t assoc);
    void touch(std::uint64_t set, std::uint32_t way) override;
    std::uint32_t victim(std::uint64_t set) override;
    void reset() override;

  private:
    std::uint32_t assoc_;
    std::vector<std::uint32_t> nextOut_; ///< per-set pointer
};

/** Uniform random eviction (deterministic from a seed). */
class RandomPolicy : public ReplacementPolicy
{
  public:
    RandomPolicy(std::uint32_t assoc, std::uint64_t seed);
    void touch(std::uint64_t set, std::uint32_t way) override;
    std::uint32_t victim(std::uint64_t set) override;
    void reset() override;

  private:
    std::uint32_t assoc_;
    std::uint64_t seed_;
    Rng rng_;
};

/** Tree pseudo-LRU; requires power-of-two associativity. */
class TreePlruPolicy : public ReplacementPolicy
{
  public:
    TreePlruPolicy(std::uint64_t sets, std::uint32_t assoc);
    void touch(std::uint64_t set, std::uint32_t way) override;
    std::uint32_t victim(std::uint64_t set) override;
    void reset() override;

  private:
    std::uint32_t assoc_;
    std::uint32_t levels_;
    /** assoc-1 tree bits per set, heap layout. */
    std::vector<bool> bits_;

    std::size_t bitIndex(std::uint64_t set, std::uint32_t node) const;
};

} // namespace uatm

#endif // UATM_CACHE_REPLACEMENT_HH
