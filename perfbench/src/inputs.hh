/**
 * @file
 * Every input the benchmark feeds the program, generated from the
 * benchmark seed alone: the offline sweep catalog and its visiting
 * order, the captured trace files and the timing-engine grid, the
 * served request bodies and their Poisson arrival times.  The same
 * seed gives byte-identical inputs; the program sees only them.
 */

#ifndef PERFBENCH_INPUTS_HH
#define PERFBENCH_INPUTS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "exp/scenario.hh"
#include "exp/scenarios.hh"
#include "trace/source.hh"
#include "util/status.hh"

namespace perfbench {

/** Independent 64-bit stream @p stream / @p index of @p seed
 *  (splitmix64 finaliser). */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t stream,
                         std::uint64_t index);

/** Portable draws: std:: distributions are implementation-defined,
 *  so the benchmark derives its own from raw 64-bit outputs. */
class SeededRng
{
  public:
    explicit SeededRng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();
    /** Uniform in [0, 1). */
    double uniform();
    /** Uniform in [0, n). */
    std::size_t below(std::size_t n);

  private:
    std::uint64_t state_;
};

/** Pull up to @p n references from @p source into an in-memory
 *  trace with fillBatch, stopping early when the source runs out.
 *  The traced replays time this as trace generation or reading. */
uatm::Trace fillTrace(uatm::TraceSource &source, std::size_t n);

// ---- offline_sweep ------------------------------------------------

constexpr std::uint64_t kSweepRefs = 20000;
constexpr std::uint64_t kSweepWarmup = 2000;

/** The 8 cache sizes, 4 KiB to 512 KiB. */
const std::vector<std::uint64_t> &sweepSizes();

/**
 * Resolve the catalog: size sweeps at assoc {1,2,4}, line 32,
 * Engine::Auto, of one workload per generator family (the six
 * SPEC92 profiles, ycsb-a and reuse-dist), each seeded from @p seed,
 * and validate every workload by building its source once.  This is
 * the workload's set-up.
 */
uatm::Expected<std::vector<uatm::exp::GeometrySweep>>
resolveSweepCatalog(std::uint64_t seed);

/** Seeded visiting order: one permutation of the catalog. */
std::vector<std::size_t> sweepOrder(std::uint64_t seed,
                                    std::size_t catalog_size);

// ---- engine_replay ------------------------------------------------

/** References per captured trace (every grid point replays one
 *  whole file). */
constexpr std::uint64_t kReplayRefs = 40000;

/** Capture one binary trace of each of three SPEC92 profiles
 *  (nasa7, doduc, hydro2d) into @p dir, seeded from @p seed;
 *  returns the file paths.  This is the workload's set-up. */
uatm::Expected<std::vector<std::string>>
captureReplayTraces(std::uint64_t seed, const std::string &dir);

/** The design_space_explorer grid (cache x bus x feature x write
 *  buffer, 24 points) over one captured trace file. */
uatm::exp::Scenario replayGrid(const std::string &trace_path);

// ---- served ---------------------------------------------------------

/** Shape of a served request (the bench_served size sweep). */
constexpr std::size_t kServedPoints = 8;
constexpr std::uint64_t kServedRefs = 20000;
constexpr std::uint64_t kServedWarmup = 2000;

/** Cold request @p index: the bench_served size sweep with a
 *  workload seed no other request of this run uses. */
std::string coldBody(std::uint64_t seed, std::size_t index);

/** Poisson arrival times (seconds from phase start): round(@p rate
 *  x @p seconds) requests with exponential gaps of mean 1/@p rate,
 *  drawn by stratified sampling; @p stream separates the phases. */
std::vector<double> poissonSchedule(std::uint64_t seed,
                                    std::uint64_t stream, double rate,
                                    double seconds);

/** Which cold body each of @p count warm requests repeats. */
std::vector<std::size_t> warmDraws(std::uint64_t seed,
                                   std::size_t count,
                                   std::size_t cold_count);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_HH
