/**
 * @file
 * Declarative workload description for the experiment layer.
 *
 * A WorkloadSpec names *how to build* a trace source rather than
 * holding one: every shard of a parallel run calls make() and gets
 * its own deterministically reseeded stream, so N workers see
 * exactly the byte stream one worker would have seen.  make() is
 * the one way to get a stream.
 *
 * The recipe is {method, params, seed, withIFetch}: method is a
 * name in the process-wide WorkloadRegistry and params a typed
 * ParamMap the registry validates against the method's declared
 * parameters.  A spec is plain data — including workload axes
 * that sweep over methods or params — so toJson()/fromJson()
 * round-trip it losslessly and a scenario can be shipped across
 * processes (DESIGN.md §10).  An in-process stream of one's own is
 * a WorkloadRegistry::add() call, after which its specs serialize
 * and key like any builtin's.
 */

#ifndef UATM_EXP_WORKLOAD_SPEC_HH
#define UATM_EXP_WORKLOAD_SPEC_HH

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "exp/param_map.hh"
#include "trace/source.hh"
#include "util/status.hh"

namespace uatm::obs {
class JsonPath;
class JsonValue;
}

namespace uatm::exp {

/** One "key=value" element of a comma-separated list. */
struct KeyValue
{
    std::string key;
    std::string value;

    bool operator==(const KeyValue &) const = default;
};

/**
 * Parse "k1=v1,k2=v2,..." (the params of a --workload argument)
 * into ordered pairs.  An empty string is the empty list.  Missing
 * '=', empty keys, and empty elements ("a=1,,b=2") are ParseError.
 * Values may be empty ("hist=") and may not contain ',' (no
 * escaping).
 */
Expected<std::vector<KeyValue>> parseKeyValueList(std::string_view text);

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

    bool operator==(const WorkloadSpec &) const = default;

    /** Spec for any registered @p method. */
    static WorkloadSpec of(std::string method,
                           ParamMap params = {},
                           std::uint64_t seed = 1);

    /** Spec92 spec for @p profile at @p seed. */
    static WorkloadSpec spec92(std::string profile,
                               std::uint64_t seed = 1);

    /** Short & Levy mix at @p seed. */
    static WorkloadSpec shortLevy(std::uint64_t seed = 1);

    /** Marker for analytic scenarios that touch no trace. */
    static WorkloadSpec none();

    /**
     * Parse a "<method>[:k=v,...]" CLI argument (the shared
     * --workload syntax).  A declared string param takes its text
     * as typed.  Any other param's text is read as a flag's is, as
     * a JSON value or else a JSON string (obs::parseTypedText), and
     * becomes what a JSON "params" member of that text gives
     * (ParamValue::fromJson), so the spec equals the one fromJson()
     * reads from the same params: "ycsb-a:theta=0.99,records=1e6"
     * works, and "ycsb:theta=oops" or "theta=.5" is a typed error,
     * as in JSON.  Bare Spec92 profile names ("doduc") and
     * "shortlevy" are accepted as shorthands for
     * spec92:profile=... and short-levy.
     */
    static Expected<WorkloadSpec> parse(std::string_view arg,
                                        std::uint64_t seed = 1);

    /** True for the analytic none() marker. */
    bool isNone() const { return method == "none"; }

    /** Axis-label form: "nasa7", "ycsb-a:theta=0.9", ... */
    std::string shortLabel() const;

    /** "nasa7 (seed 1)", "ycsb-a (seed 3) +ifetch", ... */
    std::string describe() const;

    /**
     * One-line JSON document {"method", "params", "seed",
     * "ifetch"}; InvalidArgument for a spec with an empty method.
     * Stable: equal specs render byte-identically (params are kept
     * sorted), and fromJson(toJson()) is the identity on the
     * stream the spec builds.
     */
    Expected<std::string> toJson() const;

    /** Parse toJson()'s schema.  Unknown fields, a missing
     *  method, or mistyped values are a ParseError naming the
     *  JSON path; an unknown *method name* is deliberately left
     *  for make() to report, so deserialized grids degrade per
     *  point. */
    static Expected<WorkloadSpec> fromJson(std::string_view text);

    /** The same, over the value at @p path of an already-parsed
     *  document (a sweep request's workload subtree). */
    static Expected<WorkloadSpec> fromJson(const obs::JsonValue &value,
                                           const obs::JsonPath &path);

    /**
     * Build a fresh source, rewound to the stream's beginning.
     * Deterministic: two calls on the same spec produce identical,
     * independent streams.  Errors (rather than aborting) for
     * none(), an empty method (InvalidArgument, as toJson()),
     * unknown methods, and bad params, so one bad point in a grid
     * degrades to an error row.
     */
    Expected<std::unique_ptr<TraceSource>> make() const;
};

} // namespace uatm::exp

#endif // UATM_EXP_WORKLOAD_SPEC_HH
