/**
 * @file
 * Content-addressed canonicalization of experiment points.
 *
 * canonicalPointKey renders everything a Point's evaluation
 * depends on — the four configs, the workload recipe, the ref
 * counts, and the id of the kernel that prices it — as one
 * canonical JSON document: field order is fixed, numbers render
 * locale-independently (obs::JsonWriter), and the workload params
 * are name-sorted (ParamMap).  Two points with equal keys are
 * therefore guaranteed to produce byte-identical result cells
 * under the same kernel, which is what makes sweep results safely
 * memoizable (the serve layer's PointCache).
 *
 * Every workload spec is data, so every point gets a key, except
 * one whose spec has an empty method: it names no stream, and it
 * refuses a key with a typed InvalidArgument Status rather than
 * hashing a description that could alias another point's.  A
 * bogus cache key would serve wrong results, so "no key" is the
 * only safe answer.
 */

#ifndef UATM_EXP_POINT_KEY_HH
#define UATM_EXP_POINT_KEY_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "exp/scenario.hh"
#include "util/status.hh"

namespace uatm::exp {

/** Bumped whenever the canonical key layout changes shape, so a
 *  persisted cache never aliases entries across layouts. */
constexpr int kPointKeySchemaVersion = 1;

/**
 * The canonical one-line JSON key of @p point evaluated by
 * @p kernel_id (an arbitrary non-empty label naming the kernel's
 * value columns + semantics, e.g. "cache/v1").  Coordinates do
 * not participate: by the time a Point reaches a kernel its axis
 * values have been applied to the configs, so two points at
 * different coordinates that resolve to the same configuration
 * correctly share a key.  InvalidArgument for a workload spec
 * with an empty method (never a silent partial key).
 */
Expected<std::string> canonicalPointKey(const Point &point,
                                        std::string_view kernel_id);

/**
 * 64-bit FNV-1a digest of @p canonical_key, as 16 lowercase hex
 * digits — the content address used for on-disk cache filenames.
 * Collisions are survivable: consumers must compare the full key
 * stored next to the value before trusting a digest match.
 */
std::string pointKeyDigest(std::string_view canonical_key);

} // namespace uatm::exp

#endif // UATM_EXP_POINT_KEY_HH
