/**
 * @file
 * Implementation of reuse-distance profiles and the synthesizing
 * generator.
 */

#include "trace/reuse_distance.hh"

#include <algorithm>
#include <cmath>

#include "obs/json.hh"
#include "util/logging.hh"

namespace uatm {

Status
ReuseProfile::validate() const
{
    if (weights.empty())
        return Status::invalidArgument(
            "reuse profile needs at least one weight");
    double total = coldWeight;
    if (!std::isfinite(coldWeight) || coldWeight < 0.0)
        return Status::invalidArgument(
            "reuse profile cold weight must be finite and >= 0");
    for (std::size_t d = 0; d < weights.size(); ++d) {
        if (!std::isfinite(weights[d]) || weights[d] < 0.0) {
            return Status::invalidArgument(
                "reuse profile weight[", d,
                "] must be finite and >= 0");
        }
        total += weights[d];
    }
    if (total <= 0.0)
        return Status::invalidArgument(
            "reuse profile has zero total mass");
    return Status();
}

void
ReuseProfile::normalize()
{
    double total = coldWeight;
    for (double w : weights)
        total += w;
    UATM_ASSERT(total > 0.0, "normalizing an all-zero profile");
    coldWeight /= total;
    for (double &w : weights)
        w /= total;
}

double
ReuseProfile::cdfAt(std::size_t assoc) const
{
    double sum = 0.0;
    for (std::size_t d = 0; d < assoc && d < weights.size(); ++d)
        sum += weights[d];
    return sum;
}

ReuseProfile
ReuseProfile::geometric(std::size_t depth, double decay,
                        double cold_fraction)
{
    UATM_ASSERT(depth >= 1, "geometric profile needs depth >= 1");
    UATM_ASSERT(decay > 0.0 && decay <= 1.0,
                "geometric decay must be in (0, 1], got ", decay);
    UATM_ASSERT(cold_fraction >= 0.0 && cold_fraction < 1.0,
                "cold fraction must be in [0, 1), got ",
                cold_fraction);
    ReuseProfile profile;
    profile.weights.resize(depth);
    double w = 1.0;
    double sum = 0.0;
    for (std::size_t d = 0; d < depth; ++d) {
        profile.weights[d] = w;
        sum += w;
        w *= decay;
    }
    // Scale the reuse mass so cold_fraction of the total is cold.
    const double reuse_mass = 1.0 - cold_fraction;
    for (double &weight : profile.weights)
        weight = weight / sum * reuse_mass;
    profile.coldWeight = cold_fraction;
    return profile;
}

Expected<ReuseProfile>
ReuseProfile::measure(TraceSource &source, std::uint64_t refs,
                      std::uint32_t line_bytes,
                      std::size_t max_depth)
{
    if (refs == 0)
        return Status::invalidArgument(
            "measuring a reuse profile needs refs > 0");
    if (line_bytes == 0 || (line_bytes & (line_bytes - 1)) != 0)
        return Status::invalidArgument(
            "line bytes must be a power of two, got ", line_bytes);
    if (max_depth == 0)
        return Status::invalidArgument(
            "reuse profile depth must be >= 1");

    ReuseProfile profile;
    profile.weights.assign(max_depth, 0.0);

    // Lines deeper than the profile can describe fold into cold
    // anyway, so the stack (and each lookup) stays bounded by
    // max_depth.
    LruStack stack(max_depth);
    BatchPump pump(source);
    pump.pumpTo(refs, [&](const MemoryReference *batch,
                          std::size_t count) {
        for (std::size_t i = 0; i < count; ++i) {
            const std::size_t distance =
                stack.touch(batch[i].addr / line_bytes);
            if (distance < max_depth)
                profile.weights[distance] += 1.0;
            else
                profile.coldWeight += 1.0;
        }
    });
    if (pump.consumed() == 0)
        return Status::invalidArgument(
            "source produced no references to measure");
    profile.normalize();
    return profile;
}

std::string
ReuseProfile::toJsonText() const
{
    obs::JsonWriter writer;
    writer.beginObject();
    writer.keyValue("cold", coldWeight);
    writer.key("weights");
    writer.beginArray();
    for (double w : weights)
        writer.value(w);
    writer.endArray();
    writer.endObject();
    return writer.str();
}

Expected<ReuseProfile>
ReuseProfile::fromJsonText(std::string_view text)
{
    const auto parsed = obs::parseJson(text);
    if (!parsed) {
        return Status::parseError("bad reuse profile JSON: ",
                                  parsed.error);
    }
    const obs::JsonValue &root = parsed.value;
    if (!root.isObject()) {
        return Status::parseError(
            "reuse profile JSON must be an object");
    }
    ReuseProfile profile;
    const obs::JsonValue *weights = root.find("weights");
    if (!weights || !weights->isArray()) {
        return Status::parseError(
            "reuse profile needs a \"weights\" array");
    }
    for (const auto &item : weights->items()) {
        if (!item.isNumber()) {
            return Status::parseError(
                "reuse profile weights must be numbers");
        }
        profile.weights.push_back(item.asNumber());
    }
    if (const obs::JsonValue *cold = root.find("cold")) {
        if (!cold->isNumber()) {
            return Status::parseError(
                "reuse profile \"cold\" must be a number");
        }
        profile.coldWeight = cold->asNumber();
    }
    const Status status = profile.validate();
    if (!status.ok())
        return status;
    return profile;
}

namespace {

/** The profile's depth, once validate() passes (StatusError
 *  otherwise): the stack is sized from it. */
std::size_t
validatedDepth(const ReuseProfile &profile)
{
    okOrThrow(profile.validate());
    return profile.depth();
}

} // namespace

ReuseDistanceWorkload::ReuseDistanceWorkload(const Config &config,
                                             Rng rng)
    : config_(config), rng_(rng), initialRng_(rng),
      stack_(validatedDepth(config.profile)),
      nextFreshLine_(config.base / config.lineBytes)
{
    UATM_ASSERT(config_.lineBytes != 0 &&
                    (config_.lineBytes &
                     (config_.lineBytes - 1)) == 0,
                "line bytes must be a power of two, got ",
                config_.lineBytes);
    UATM_ASSERT(isValidAccessSize(config_.accessSize),
                "bad access size ", config_.accessSize);
    UATM_ASSERT(config_.accessSize <= config_.lineBytes,
                "access size exceeds the line");
    UATM_ASSERT(config_.storeFraction >= 0.0 &&
                    config_.storeFraction <= 1.0,
                "store fraction must be in [0, 1]");

    cdf_.reserve(config_.profile.weights.size() + 1);
    double sum = config_.profile.coldWeight;
    cdf_.push_back(sum);
    for (double w : config_.profile.weights) {
        sum += w;
        cdf_.push_back(sum);
    }
}

std::optional<MemoryReference>
ReuseDistanceWorkload::next()
{
    const double u = rng_.nextDouble() * cdf_.back();
    const auto slot = static_cast<std::size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) -
        cdf_.begin());

    std::uint64_t line;
    if (slot == 0 || slot - 1 >= stack_.size()) {
        // Cold draw, or a reuse deeper than the stack currently
        // holds (only possible during warmup): a fresh line, which
        // is never on the stack.
        line = nextFreshLine_++;
        stack_.push(line);
    } else {
        line = stack_.promote(slot - 1);
    }

    const std::uint32_t slots =
        config_.lineBytes / config_.accessSize;
    MemoryReference ref;
    ref.addr = line * config_.lineBytes +
               rng_.nextBelow(slots) * config_.accessSize;
    ref.size = static_cast<std::uint8_t>(config_.accessSize);
    ref.kind = rng_.nextBool(config_.storeFraction)
                   ? RefKind::Store
                   : RefKind::Load;
    ref.gap = config_.gap.sample(rng_);
    return ref;
}

void
ReuseDistanceWorkload::reset()
{
    rng_ = initialRng_;
    stack_.clear();
    nextFreshLine_ = config_.base / config_.lineBytes;
}

std::size_t
ReuseDistanceWorkload::fillBatch(MemoryReference *out,
                                 std::size_t max_refs)
{
    for (std::size_t i = 0; i < max_refs; ++i)
        out[i] = *ReuseDistanceWorkload::next();
    return max_refs;
}

} // namespace uatm
