/**
 * @file
 * Implementation of the instruction-fetch stream.
 */

#include "trace/ifetch.hh"

#include "util/logging.hh"

namespace uatm {

IFetchGenerator::IFetchGenerator(const IFetchConfig &config, Rng rng)
    : config_(config), rng_(rng), initialRng_(rng)
{
    UATM_ASSERT(config_.fetchBytes == 2 || config_.fetchBytes == 4 ||
                config_.fetchBytes == 8,
                "instruction size must be 2, 4 or 8 bytes");
    UATM_ASSERT(config_.meanRunLength >= 1,
                "run length must be at least one");
    UATM_ASSERT(config_.hotTargets >= 1,
                "need at least one branch target");
    UATM_ASSERT(config_.loopBackProbability >= 0.0 &&
                config_.loopBackProbability <= 1.0,
                "loop-back probability must be in [0, 1]");
    seedTargets();
}

void
IFetchGenerator::seedTargets()
{
    targets_.clear();
    targets_.reserve(config_.hotTargets);
    // Spread targets over the hot code region, one per mean run,
    // with a small odd jitter so targets do not alias in caches.
    Addr addr = config_.codeBase;
    Rng jitter = initialRng_;
    for (std::uint32_t i = 0; i < config_.hotTargets; ++i) {
        targets_.push_back(addr);
        addr += (config_.meanRunLength +
                 jitter.nextBelow(config_.meanRunLength + 1)) *
                config_.fetchBytes;
    }
    freshCode_ = addr + (1u << 20);
    pc_ = targets_.front();
    runLeft_ = config_.meanRunLength;
}

void
IFetchGenerator::takeBranch()
{
    if (rng_.nextBool(config_.loopBackProbability)) {
        pc_ = targets_[rng_.nextBelow(targets_.size())];
    } else {
        // Cold code: march forward so every fetch is compulsory.
        pc_ = freshCode_;
        freshCode_ +=
            (config_.meanRunLength + 1) * config_.fetchBytes * 4;
    }
    // Geometric-ish run length around the mean.
    runLeft_ = 1 + static_cast<std::uint32_t>(rng_.nextBelow(
                       2 * config_.meanRunLength));
}

std::optional<MemoryReference>
IFetchGenerator::next()
{
    MemoryReference ref;
    ref.addr = pc_;
    ref.size = static_cast<std::uint8_t>(config_.fetchBytes);
    ref.kind = RefKind::IFetch;
    ref.gap = 0;

    pc_ += config_.fetchBytes;
    if (runLeft_ == 0 || --runLeft_ == 0)
        takeBranch();
    return ref;
}

void
IFetchGenerator::reset()
{
    rng_ = initialRng_;
    seedTargets();
}

IFetchInterleaver::IFetchInterleaver(
    std::unique_ptr<TraceSource> data, const IFetchConfig &config,
    Rng rng)
    : data_(std::move(data)), fetch_(config, rng)
{
    UATM_ASSERT(data_ != nullptr, "interleaver needs a data source");
}

std::optional<MemoryReference>
IFetchInterleaver::next()
{
    if (fetchesOwed_ == 0 && !held_) {
        auto data_ref = data_->next();
        if (!data_ref)
            return std::nullopt;
        // gap non-memory instructions + the load/store itself.
        fetchesOwed_ = data_ref->gap + 1;
        data_ref->gap = 0;
        held_ = *data_ref;
    }
    if (fetchesOwed_ > 0) {
        --fetchesOwed_;
        return fetch_.next();
    }
    auto out = held_;
    held_.reset();
    return out;
}

void
IFetchInterleaver::reset()
{
    data_->reset();
    fetch_.reset();
    fetchesOwed_ = 0;
    held_.reset();
}

} // namespace uatm
