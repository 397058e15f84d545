/**
 * @file
 * Composable trace transformations: address offsetting, reference
 * sampling, kind filtering and source concatenation.  These are
 * the plumbing for multiprogramming-style experiments (two
 * programs at disjoint address ranges time-sliced on one cache)
 * and for building custom workloads out of the bundled
 * generators without writing new ones.
 */

#ifndef UATM_TRACE_TRANSFORM_HH
#define UATM_TRACE_TRANSFORM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "trace/source.hh"
#include "util/random.hh"

namespace uatm {

/** Adds a constant to every address (address-space placement). */
class OffsetSource : public TraceSource
{
  public:
    OffsetSource(std::unique_ptr<TraceSource> inner,
                 std::int64_t offset_bytes);

    std::optional<MemoryReference> next() override;
    void reset() override;

  private:
    std::unique_ptr<TraceSource> inner_;
    std::int64_t offset_;
};

/**
 * Keeps one reference in @p period, folding the dropped
 * references' instruction counts into the survivors' gaps so E is
 * preserved — the standard trace-sampling trick.
 */
class SampleSource : public TraceSource
{
  public:
    SampleSource(std::unique_ptr<TraceSource> inner,
                 std::uint32_t period);

    std::optional<MemoryReference> next() override;
    void reset() override;

  private:
    std::unique_ptr<TraceSource> inner_;
    std::uint32_t period_;
};

/** Passes through only references of the given kind(s). */
class KindFilterSource : public TraceSource
{
  public:
    KindFilterSource(std::unique_ptr<TraceSource> inner,
                     bool keep_loads, bool keep_stores,
                     bool keep_ifetch);

    std::optional<MemoryReference> next() override;
    void reset() override;

  private:
    std::unique_ptr<TraceSource> inner_;
    bool keepLoads_;
    bool keepStores_;
    bool keepIFetch_;
};

/**
 * Time-slices several sources in round-robin quanta with a
 * context-switch gap — a multiprogramming model (the regime the
 * paper's Sec. 3.4 notes raises instruction miss ratios).
 */
class TimeSliceSource : public TraceSource
{
  public:
    /**
     * @param sources the co-scheduled programs
     * @param quantum references per time slice
     * @param switch_gap extra non-memory instructions charged at
     *        each context switch
     */
    TimeSliceSource(
        std::vector<std::unique_ptr<TraceSource>> sources,
        std::uint64_t quantum, std::uint32_t switch_gap = 50);

    std::optional<MemoryReference> next() override;
    void reset() override;

  private:
    std::vector<std::unique_ptr<TraceSource>> sources_;
    std::uint64_t quantum_;
    std::uint32_t switchGap_;
    std::size_t current_ = 0;
    std::uint64_t emitted_ = 0;
    bool pendingSwitch_ = false;
};

} // namespace uatm

#endif // UATM_TRACE_TRANSFORM_HH
