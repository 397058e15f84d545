/**
 * @file
 * Implementation of the xoshiro256** generator and sampling helpers.
 */

#include "util/random.hh"

#include <cmath>

#include "util/logging.hh"

namespace uatm {

namespace {

/** SplitMix64 step, used only for seeding. */
std::uint64_t
splitMix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s_)
        word = splitMix64(sm);
}

std::size_t
Rng::nextWeighted(const std::vector<double> &weights)
{
    UATM_ASSERT(!weights.empty(), "weight vector must be non-empty");
    double total = 0.0;
    for (double w : weights) {
        UATM_ASSERT(w >= 0.0, "weights must be non-negative");
        total += w;
    }
    UATM_ASSERT(total > 0.0, "weights must not all be zero");
    double u = nextDouble() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        u -= weights[i];
        if (u < 0.0)
            return i;
    }
    return weights.size() - 1;
}

Rng
Rng::fork()
{
    // Derive the child seed from fresh output; the SplitMix64
    // expansion in the constructor decorrelates the streams.
    return Rng((*this)());
}

StackDistanceSampler::StackDistanceSampler(std::size_t n,
                                           double decay)
    : n_(n)
{
    UATM_ASSERT(n > 0, "stack distance needs a non-empty stack");
    UATM_ASSERT(decay > 0.0 && decay < 1.0,
                "decay must lie strictly inside (0, 1)");
    // Inverse-CDF sample of the truncated geometric distribution
    // P(i) ~ decay^i for i in [0, n): only u varies per draw.
    total_ = 1.0 - std::pow(decay, static_cast<double>(n));
    logDecay_ = std::log(decay);
}

} // namespace uatm
