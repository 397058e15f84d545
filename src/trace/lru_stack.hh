/**
 * @file
 * The move-to-front LRU stack behind the locality generators and
 * the reuse-distance profiler.
 *
 * Entries sit most recent first in one contiguous array.  Touching
 * the entry at depth d shifts only the d entries above it down one
 * slot (one memmove, as cache/stack_sim does per set), so a caller
 * that already knows the depth — the generators sample it — pays
 * O(d) and never scans.  A lookup by key scans from the top and
 * stops at the key, so it too costs O(depth of the key); only a
 * key that is absent costs the whole stack.
 */

#ifndef UATM_TRACE_LRU_STACK_HH
#define UATM_TRACE_LRU_STACK_HH

#include <cstddef>
#include <cstring>
#include <vector>

#include "trace/ref.hh"
#include "util/logging.hh"

namespace uatm {

/** Bounded LRU stack of distinct keys, most recent at depth 0. */
class LruStack
{
  public:
    /** A stack that holds at most @p capacity (>= 1) keys. */
    explicit LruStack(std::size_t capacity) : capacity_(capacity)
    {
        UATM_ASSERT(capacity_ >= 1, "LRU stack needs capacity >= 1");
    }

    std::size_t size() const { return keys_.size(); }

    /** Move the key at @p depth (< size()) to the top; returns it. */
    Addr promote(std::size_t depth)
    {
        Addr *keys = keys_.data();
        const Addr key = keys[depth];
        std::memmove(keys + 1, keys, depth * sizeof(Addr));
        keys[0] = key;
        return key;
    }

    /** Push @p key, which must not be on the stack, on top; the
     *  bottom key falls off when the stack is full. */
    void push(Addr key)
    {
        if (keys_.size() < capacity_)
            keys_.push_back(key);
        Addr *keys = keys_.data();
        std::memmove(keys + 1, keys,
                     (keys_.size() - 1) * sizeof(Addr));
        keys[0] = key;
    }

    /** Bring @p key to the top: promoted when it is on the stack,
     *  pushed otherwise.  Returns its depth before the touch, or
     *  the capacity when it was absent.  The scan stops at the
     *  key, so it costs the key's depth. */
    std::size_t touch(Addr key)
    {
        std::size_t depth = 0;
        while (depth < keys_.size() && keys_[depth] != key)
            ++depth;
        if (depth < keys_.size()) {
            promote(depth);
            return depth;
        }
        push(key);
        return capacity_;
    }

    /** Append @p key below every other key (seeding a stack in
     *  MRU-to-LRU order); the stack must not be full. */
    void pushBottom(Addr key)
    {
        UATM_ASSERT(keys_.size() < capacity_, "LRU stack overflow");
        keys_.push_back(key);
    }

    void clear() { keys_.clear(); }

  private:
    std::size_t capacity_;
    std::vector<Addr> keys_;
};

} // namespace uatm

#endif // UATM_TRACE_LRU_STACK_HH
