/**
 * @file
 * Reuse-distance-driven trace synthesis.
 *
 * A ReuseProfile is a target LRU reuse-distance histogram at line
 * granularity: weights[d] is the (relative) probability that an
 * access touches the d-th most recently used line, plus a cold
 * weight for brand-new lines.  ReuseDistanceWorkload inverts the
 * histogram: it keeps an explicit LRU stack, samples a distance
 * from the target distribution per access, and touches that stack
 * slot — so the measured reuse-distance histogram of the emitted
 * stream converges to the target (exactly, once the stack is
 * warm), and a fully-associative LRU cache of size A sees a hit
 * ratio equal to the target CDF at A.  That makes the generator
 * directly verifiable against the Mattson stack-distance engine
 * (cache/stack_sim.hh): a setCounts={1} geometry grid measures
 * the same histogram the profile prescribes.
 *
 * Profiles come from three places: the geometric() constructor
 * (decaying reuse, a cold tail), a JSON document (inline or a
 * file written by an earlier run), or measure() over any other
 * TraceSource — which is how a measured workload's locality can
 * be replayed synthetically at a different scale.
 */

#ifndef UATM_TRACE_REUSE_DISTANCE_HH
#define UATM_TRACE_REUSE_DISTANCE_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "trace/generators.hh"
#include "trace/lru_stack.hh"
#include "trace/source.hh"
#include "util/random.hh"
#include "util/status.hh"

namespace uatm {

/** Target reuse-distance histogram at line granularity. */
struct ReuseProfile
{
    /** weights[d]: relative P(reuse of the d-th MRU line). */
    std::vector<double> weights;

    /** Relative P(a brand-new line: a compulsory miss). */
    double coldWeight = 0.0;

    /** Stack depth the profile covers. */
    std::size_t depth() const { return weights.size(); }

    /** Finite, non-negative, positive total mass. */
    Status validate() const;

    /** Normalize to sum 1 (validate() must hold). */
    void normalize();

    /** CDF at @p assoc: fraction of accesses with distance
     *  < assoc, of a normalized profile. */
    double cdfAt(std::size_t assoc) const;

    /** Geometrically decaying reuse with a cold tail. */
    static ReuseProfile geometric(std::size_t depth, double decay,
                                  double cold_fraction);

    /**
     * Measure @p refs references of @p source at @p line_bytes
     * granularity.  Distances >= max_depth fold into the cold
     * weight (they are indistinguishable from compulsory misses
     * to any cache the profile can describe).  The result is
     * normalized.
     */
    static Expected<ReuseProfile> measure(TraceSource &source,
                                          std::uint64_t refs,
                                          std::uint32_t line_bytes,
                                          std::size_t max_depth);

    /** {"cold": c, "weights": [...]} */
    std::string toJsonText() const;

    /** Parse toJsonText()'s schema: a ParseError naming the JSON
     *  path on anything else, then validate()'s checks.  Unknown
     *  keys are ignored. */
    static Expected<ReuseProfile> fromJsonText(std::string_view text);
};

/**
 * Synthesizes an endless stream matching a ReuseProfile.
 */
class ReuseDistanceWorkload : public TraceSource
{
  public:
    struct Config
    {
        ReuseProfile profile;
        Addr base = 0x4000000;
        /** Granularity at which reuse happens. */
        std::uint32_t lineBytes = 32;
        std::uint32_t accessSize = 4;
        double storeFraction = 0.3;
        GapModel gap;
    };

    ReuseDistanceWorkload(const Config &config, Rng rng);

    std::optional<MemoryReference> next() override;
    void reset() override;
    std::size_t fillBatch(MemoryReference *out,
                          std::size_t max_refs) override;

  private:
    Config config_;
    Rng rng_;
    Rng initialRng_;
    std::vector<double> cdf_; ///< [cold, w0, w0+w1, ...]
    LruStack stack_;          ///< line numbers, MRU at depth 0
    std::uint64_t nextFreshLine_;
};

} // namespace uatm

#endif // UATM_TRACE_REUSE_DISTANCE_HH
