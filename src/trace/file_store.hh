/**
 * @file
 * The process-wide store of decoded trace files.
 *
 * A captured trace is replayed by many streams: each point of a
 * scenario makes its own source, 24 per design-space grid.  The
 * store splits loading from reading, as codes-workload splits
 * codes_workload_load() from codes_workload_get_next(): a file is
 * decoded once into an immutable Trace, and every make() gets its
 * own SharedTraceCursor over it, whose fillBatch is a memcpy.
 *
 * An entry is keyed on the file's (device, inode).  Every make()
 * stat()s the path and checks the entry against the file's size and
 * mtime (to the nanosecond) and the requested format; a file that
 * changed is decoded again.  The decode runs under the store's
 * mutex, so concurrent make()s of one file wait for one decode.  A decode lives while any cursor reads it, and the
 * store keeps the one it handed out last, so memory is bounded by
 * the files in use plus one.  DESIGN.md §11 gives the staleness
 * rule's limit.
 */

#ifndef UATM_TRACE_FILE_STORE_HH
#define UATM_TRACE_FILE_STORE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "trace/io.hh"
#include "trace/source.hh"
#include "util/status.hh"

namespace uatm {

/** How a trace file is encoded. */
enum class TraceFileFormat : std::uint8_t
{
    Binary, ///< BinaryTraceFormat
    Text,   ///< TextTraceFormat
};

class TraceFileStore
{
  public:
    /** The one store of this process. */
    static TraceFileStore &instance();

    TraceFileStore(const TraceFileStore &) = delete;
    TraceFileStore &operator=(const TraceFileStore &) = delete;

    /**
     * A new cursor at the start of @p path's references.  The file
     * is decoded first when the store holds no decode of its current
     * version in @p format.  A missing or non-regular file is an
     * IoError and a malformed one the reader's ParseError; neither
     * is remembered, so the next make() looks at the file again.
     */
    Expected<std::unique_ptr<TraceSource>>
    make(const std::string &path, TraceFileFormat format);

    /** Decodes started since the process began (tests read it to
     *  see that make()s share one). */
    std::uint64_t decodes() const;

  private:
    TraceFileStore() = default;

    /** (device, inode). */
    using Key = std::pair<std::uint64_t, std::uint64_t>;

    struct Entry
    {
        TraceFileStamp stamp;
        TraceFileFormat format = TraceFileFormat::Binary;
        /** The decode, alive while a cursor reads it. */
        std::weak_ptr<const Trace> decoded;
    };

    mutable std::mutex mutex_;
    /** Only files being read have an entry. */
    std::map<Key, Entry> entries_;
    /** The decode handed out last, kept when no cursor reads it. */
    std::shared_ptr<const Trace> lastUsed_;
    std::uint64_t decodes_ = 0;
};

} // namespace uatm

#endif // UATM_TRACE_FILE_STORE_HH
