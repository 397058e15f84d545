/**
 * @file
 * In-memory spans for the traced run.  The benchmark opens one
 * span around each call it makes into a layer; spans stay in
 * memory and are written out once, after the run.
 *
 * Self time is wall-clock time: at each instant the running spans
 * of an operation are the open ones with no open descendant, and
 * each of the k running spans is charged dt / k.  On one thread
 * this is a span's duration minus the time its children cover;
 * across the runner's worker threads it splits the overlap, so
 * the self times of an operation always add up to its root span.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** Nanoseconds on the steady clock. */
std::int64_t nowNs();

struct Span
{
    const char *name = "";    ///< a literal: recording never allocates
    std::uint64_t op = 0;     ///< operation the span belongs to
    std::int64_t id = 0;
    std::int64_t parent = -1; ///< -1 for an operation's root
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
};

class SpanRecorder
{
  public:
    // Sized for a 30 s traced run, so recording never reallocates
    // inside a timed span.
    SpanRecorder() { spans_.reserve(1 << 17); }

    std::int64_t nextId() { return nextId_.fetch_add(1); }
    void add(const Span &span);

    /** All spans so far, grouped by operation in ascending order. */
    std::map<std::uint64_t, std::vector<Span>> byOperation() const;

    /** Write every span as one JSON document; false on I/O error. */
    bool writeJson(const std::string &path) const;

  private:
    std::atomic<std::int64_t> nextId_{0};
    mutable std::mutex mutex_;
    std::vector<Span> spans_; // guarded by mutex_
};

/** Opens a span on construction, records it on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &recorder, const char *name,
               std::uint64_t op, std::int64_t parent = -1);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::int64_t id() const { return span_.id; }

  private:
    SpanRecorder &recorder_;
    Span span_;
};

/**
 * Wall-clock self time (ns) of each span of one operation, in the
 * order given (see the file comment).  Parents are matched by id
 * within @p spans.
 */
std::vector<double> wallSelfNs(const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
