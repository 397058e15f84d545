/**
 * @file
 * Deterministic pseudo-random number generation for workload
 * synthesis.
 *
 * Uses xoshiro256** which is fast, has a 256-bit state, and gives
 * identical streams across platforms, so the synthetic SPEC92-like
 * traces that replace the paper's real traces are exactly
 * reproducible from a seed.
 */

#ifndef UATM_UTIL_RANDOM_HH
#define UATM_UTIL_RANDOM_HH

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/logging.hh"

namespace uatm {

/**
 * xoshiro256** generator (Blackman & Vigna).
 *
 * Satisfies the C++ UniformRandomBitGenerator requirements so it can
 * also feed <random> distributions if ever needed, but the member
 * helpers below are preferred: they are platform-stable.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Seed via SplitMix64 so that any 64-bit seed gives a good state. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ull; }

    /** Next raw 64-bit value. */
    result_type operator()();

    /** Uniform integer in [0, bound), bound > 0. Unbiased (Lemire). */
    std::uint64_t nextBelow(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t nextInRange(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli trial with success probability p. */
    bool nextBool(double p);

    /** Sample an index according to a discrete weight vector. */
    std::size_t nextWeighted(const std::vector<double> &weights);

    /**
     * Fork a statistically independent child generator.  Each
     * synthetic program in a trace mix forks its own stream so
     * adding programs never perturbs the others.
     */
    Rng fork();

  private:
    std::uint64_t s_[4];

    static std::uint64_t rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }
};

/**
 * Truncated-geometric stack-depth sampler for the LRU-stack
 * locality model: draws an index in [0, n) with P(i) proportional
 * to decay^i.  The parameters are validated, and the terms that
 * depend only on them computed, once at construction; a draw costs
 * one nextDouble(), one log and one division.
 */
class StackDistanceSampler
{
  public:
    /** @p n >= 1 entries, @p decay strictly inside (0, 1). */
    StackDistanceSampler(std::size_t n, double decay);

    /** One inverse-CDF draw from @p rng. */
    std::size_t operator()(Rng &rng) const
    {
        const double u = rng.nextDouble() * total_;
        const double raw = std::log(1.0 - u) / logDecay_;
        auto idx = static_cast<std::size_t>(raw);
        return idx >= n_ ? n_ - 1 : idx;
    }

  private:
    std::size_t n_;
    double total_;    ///< 1 - decay^n, the truncated mass
    double logDecay_; ///< log(decay)
};

// The per-draw helpers are inline: every generator calls them
// several times per reference.

inline Rng::result_type
Rng::operator()()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;

    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);

    return result;
}

inline std::uint64_t
Rng::nextBelow(std::uint64_t bound)
{
    UATM_ASSERT(bound > 0, "nextBelow requires a positive bound");
    // Lemire's nearly-divisionless unbiased method.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
        const std::uint64_t threshold = -bound % bound;
        while (low < threshold) {
            x = (*this)();
            m = static_cast<__uint128_t>(x) * bound;
            low = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

inline std::int64_t
Rng::nextInRange(std::int64_t lo, std::int64_t hi)
{
    UATM_ASSERT(lo <= hi, "nextInRange requires lo <= hi");
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    // span == 0 means the full 64-bit range.
    if (span == 0)
        return static_cast<std::int64_t>((*this)());
    return lo + static_cast<std::int64_t>(nextBelow(span));
}

inline double
Rng::nextDouble()
{
    // 53 high-quality bits into [0, 1).
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

inline bool
Rng::nextBool(double p)
{
    return nextDouble() < p;
}

} // namespace uatm

#endif // UATM_UTIL_RANDOM_HH
