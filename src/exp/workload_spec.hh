/**
 * @file
 * Declarative workload description for the experiment layer.
 *
 * A WorkloadSpec names *how to build* a trace source rather than
 * holding one: every shard of a parallel run calls make() and gets
 * its own deterministically reseeded stream, so N workers see
 * exactly the byte stream one worker would have seen.
 *
 * The recipe is {method, params, seed, withIFetch}: method is a
 * name in the process-wide WorkloadRegistry and params a typed
 * ParamMap the registry validates against the method's declared
 * parameters.  That makes every spec — including workload axes
 * that sweep over methods or params — fully declarative:
 * toJson()/fromJson() round-trip it losslessly, so a scenario can
 * be shipped across processes (DESIGN.md §10).  The one escape
 * hatch is custom(), which carries an in-process factory and is
 * explicitly not serializable.
 */

#ifndef UATM_EXP_WORKLOAD_SPEC_HH
#define UATM_EXP_WORKLOAD_SPEC_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "exp/param_map.hh"
#include "trace/source.hh"
#include "util/status.hh"

namespace uatm::obs {
class JsonValue;
}

namespace uatm::exp {

struct WorkloadSpec
{
    /** Registered method name (WorkloadRegistry). */
    std::string method = "spec92";

    /** Method params; absent entries take declared defaults. */
    ParamMap params;

    std::uint64_t seed = 1;

    /** Interleave an instruction-fetch stream (IFetchInterleaver,
     *  seeded from @ref seed). */
    bool withIFetch = false;

    /** Display name of a custom() spec. */
    std::string customName;

    /**
     * Non-serializable escape hatch: when set, make() calls this
     * instead of the registry.  Called once per point evaluation,
     * possibly from several threads at once — it must build a
     * fresh source from captured configuration only (clone() an
     * exemplar source, or construct from a seed).
     */
    std::function<std::unique_ptr<TraceSource>()> factory;

    /** Spec for any registered @p method. */
    static WorkloadSpec of(std::string method,
                           ParamMap params = {},
                           std::uint64_t seed = 1);

    /** Spec92 spec for @p profile at @p seed. */
    static WorkloadSpec spec92(std::string profile,
                               std::uint64_t seed = 1);

    /** Short & Levy mix at @p seed. */
    static WorkloadSpec shortLevy(std::uint64_t seed = 1);

    /** Custom factory spec labelled @p name. */
    static WorkloadSpec
    custom(std::string name,
           std::function<std::unique_ptr<TraceSource>()> factory);

    /** Marker for analytic scenarios that touch no trace. */
    static WorkloadSpec none();

    /**
     * Parse a "<method>[:k=v,...]" CLI argument (the shared
     * --workload syntax).  Param values are parsed against the
     * method's declared types, so "ycsb-a:theta=0.99,records=1e6"
     * works and "ycsb:theta=oops" is a typed error.  Bare Spec92
     * profile names ("doduc") and "shortlevy" are accepted as
     * shorthands for spec92:profile=... and short-levy.
     */
    static Expected<WorkloadSpec> parse(std::string_view arg,
                                        std::uint64_t seed = 1);

    /** True when make() routes to the custom factory. */
    bool isCustom() const { return factory != nullptr; }

    /** True for the analytic none() marker. */
    bool isNone() const
    {
        return !isCustom() && method == "none";
    }

    /** False only for custom() specs. */
    bool serializable() const { return !isCustom(); }

    /** Axis-label form: "nasa7", "ycsb-a:theta=0.9", ... */
    std::string shortLabel() const;

    /** "nasa7 (seed 1)", "ycsb-a (seed 3) +ifetch", ... */
    std::string describe() const;

    /**
     * One-line JSON document {"method", "params", "seed",
     * "ifetch"}; InvalidArgument for custom() specs.  Stable:
     * equal specs render byte-identically (params are kept
     * sorted), and fromJson(toJson()) is the identity on the
     * stream the spec builds.
     */
    Expected<std::string> toJson() const;

    /** Parse toJson()'s schema.  Unknown fields, a missing
     *  method, or mistyped values are ParseError; an unknown
     *  *method name* is deliberately left for make() to report,
     *  so deserialized grids degrade per point. */
    static Expected<WorkloadSpec> fromJson(std::string_view text);

    /** The same, over an already-parsed document (a sweep
     *  request's workload subtree). */
    static Expected<WorkloadSpec> fromJson(const obs::JsonValue &root);

    /**
     * Build a fresh source, rewound to the stream's beginning.
     * Deterministic: two calls on the same spec produce identical
     * streams.  Errors (rather than aborting) for none(), unknown
     * methods, and bad params, so one bad point in a grid
     * degrades to an error row.
     */
    Expected<std::unique_ptr<TraceSource>> make() const;
};

} // namespace uatm::exp

#endif // UATM_EXP_WORKLOAD_SPEC_HH
