/**
 * @file
 * Instruction-fetch modelling (paper Sec. 3.4).
 *
 * The paper argues that with a high instruction-cache hit ratio
 * the X of Eq. 2 dominates, and that otherwise an (R_I/L) phi mu_m
 * term is added — the model keeping the same form either way.  To
 * exercise that claim, this module synthesises an instruction-
 * fetch stream (sequential runs broken by branches, most of which
 * return to a small pool of loop targets) and interleaves it with
 * a data-reference stream, producing a combined trace suitable for
 * unified-cache simulation or for measuring R_I directly.
 */

#ifndef UATM_TRACE_IFETCH_HH
#define UATM_TRACE_IFETCH_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "trace/source.hh"
#include "util/random.hh"

namespace uatm {

/** Control-flow parameters of the synthetic instruction stream. */
struct IFetchConfig
{
    /** Base address of the code segment (kept disjoint from the
     *  data generators' heaps). */
    Addr codeBase = 0x40000000;

    /** Instruction size in bytes (RISC: 4). */
    std::uint32_t fetchBytes = 4;

    /** Mean sequential run length between branches. */
    std::uint32_t meanRunLength = 8;

    /** Number of distinct loop/branch targets in the hot code;
     *  footprint ~ hotTargets * meanRunLength * fetchBytes. */
    std::uint32_t hotTargets = 64;

    /** P(a branch goes to a hot target); the remainder jump to
     *  fresh code (compulsory I-misses — larger in the paper's
     *  multiprogramming discussion). */
    double loopBackProbability = 0.98;
};

/**
 * Standalone instruction-fetch reference stream.
 */
class IFetchGenerator : public TraceSource
{
  public:
    IFetchGenerator(const IFetchConfig &config, Rng rng);

    std::optional<MemoryReference> next() override;
    void reset() override;

  private:
    IFetchConfig config_;
    Rng rng_;
    Rng initialRng_;
    std::vector<Addr> targets_;
    Addr pc_;
    Addr freshCode_;
    std::uint32_t runLeft_;

    void seedTargets();
    void takeBranch();
};

/**
 * Interleaves instruction fetches with a data stream: each data
 * reference's gap instructions (plus the load/store itself) are
 * expanded into IFetch records followed by the data record, i.e.
 * the full reference stream a unified cache would see.  Gaps in
 * the emitted records are zero — the instruction count is carried
 * by the IFetch records themselves.
 */
class IFetchInterleaver : public TraceSource
{
  public:
    /**
     * @param data owned data-reference source
     * @param config control-flow parameters
     * @param rng   randomness for the fetch stream
     */
    IFetchInterleaver(std::unique_ptr<TraceSource> data,
                      const IFetchConfig &config, Rng rng);

    std::optional<MemoryReference> next() override;
    void reset() override;

  private:
    std::unique_ptr<TraceSource> data_;
    IFetchGenerator fetch_;
    /** IFetch records still owed before the held data record. */
    std::uint32_t fetchesOwed_ = 0;
    std::optional<MemoryReference> held_;
};

} // namespace uatm

#endif // UATM_TRACE_IFETCH_HH
