/**
 * @file
 * Streaming trace-source interface and the in-memory trace container.
 *
 * Simulation runs of hundreds of millions of references should not
 * require materialising the trace, so generators implement one pull
 * method, fillBatch, and consumers pull through BatchPump; small
 * traces for tests use the Trace container.  A source is a cursor
 * over one stream: reset() rewinds it, and a second, independent
 * cursor over the same stream is another exp::WorkloadSpec::make().
 */

#ifndef UATM_TRACE_SOURCE_HH
#define UATM_TRACE_SOURCE_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "trace/ref.hh"

namespace uatm {

/**
 * Pull-based producer of memory references.  fillBatch is the one
 * pull a stream implements; next() reads a batch of one.
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** Restart the source from the beginning. */
    virtual void reset() = 0;

    /**
     * Fill @p out with up to @p max_refs references, returning the
     * number written — short only when the source is exhausted at
     * that point.  How a stream is cut into batches does not change
     * it (the property suite holds every implementation to that), so
     * bulk consumers pull large batches and pay one virtual call per
     * batch rather than per reference.
     */
    virtual std::size_t fillBatch(MemoryReference *out,
                                  std::size_t max_refs) = 0;

    /** Next reference, or nullopt when the source is exhausted: a
     *  fillBatch of one. */
    std::optional<MemoryReference> next()
    {
        MemoryReference ref;
        if (fillBatch(&ref, 1) == 0)
            return std::nullopt;
        return ref;
    }

    /**
     * Drain up to @p max_refs references into a vector.  Useful for
     * tests and for capturing a generator's output to disk.
     */
    std::vector<MemoryReference> drain(std::size_t max_refs);
};

/**
 * Feeds a consumer from a source in fillBatch-sized chunks, the
 * one pull loop every bulk consumer shares.  pumpTo(until, consume)
 * pulls until @p until references have been consumed in total or
 * the source runs out, handing each chunk to consume(refs, count)
 * in stream order.  It never pulls past @p until, and once a
 * fillBatch call comes back short the pump stays exhausted and
 * never asks the source again: exactly the references, and the
 * source state, of a next() loop that stops at nullopt.
 */
class BatchPump
{
  public:
    /** References pulled per fillBatch call. */
    static constexpr std::size_t kBatchRefs = 2048;

    /** @param source borrowed; must outlive the pump. */
    explicit BatchPump(TraceSource &source) : source_(source) {}

    template <typename Consume>
    void pumpTo(std::uint64_t until, Consume &&consume)
    {
        while (!exhausted_ && consumed_ < until) {
            const auto want = static_cast<std::size_t>(
                std::min<std::uint64_t>(kBatchRefs,
                                        until - consumed_));
            const std::size_t got =
                source_.fillBatch(buffer_, want);
            consume(static_cast<const MemoryReference *>(buffer_),
                    got);
            consumed_ += got;
            exhausted_ = got < want;
        }
    }

    /** References handed to consumers so far. */
    std::uint64_t consumed() const { return consumed_; }

  private:
    TraceSource &source_;
    MemoryReference buffer_[kBatchRefs];
    std::uint64_t consumed_ = 0;
    bool exhausted_ = false;
};

/**
 * An in-memory trace; doubles as a TraceSource for replay.
 */
class Trace : public TraceSource
{
  public:
    Trace() = default;
    explicit Trace(std::vector<MemoryReference> refs);

    /** Append one reference. */
    void append(const MemoryReference &ref);

    std::size_t size() const { return refs_.size(); }
    bool empty() const { return refs_.empty(); }
    const MemoryReference &at(std::size_t i) const;
    const std::vector<MemoryReference> &refs() const { return refs_; }

    /** Total instruction count E implied by the trace
     *  (every reference is itself one instruction). */
    std::uint64_t instructionCount() const;

    /** Number of Load / Store / IFetch records respectively. */
    std::uint64_t countKind(RefKind kind) const;

    void reset() override { cursor_ = 0; }
    std::size_t fillBatch(MemoryReference *out,
                          std::size_t max_refs) override;

  private:
    std::vector<MemoryReference> refs_;
    std::size_t cursor_ = 0;
};

/**
 * A cursor over a Trace that other cursors share and nobody
 * changes: it replays the trace's references without a copy of
 * them, and reset() rewinds this cursor alone.
 */
class SharedTraceCursor : public TraceSource
{
  public:
    explicit SharedTraceCursor(std::shared_ptr<const Trace> trace);

    void reset() override { cursor_ = 0; }
    std::size_t fillBatch(MemoryReference *out,
                          std::size_t max_refs) override;

  private:
    std::shared_ptr<const Trace> trace_;
    std::size_t cursor_ = 0;
};

} // namespace uatm

#endif // UATM_TRACE_SOURCE_HH
