/**
 * @file
 * Trace persistence: a dinero-style text format and a compact
 * binary format, so generated workloads can be captured, diffed and
 * replayed across machines.
 *
 * Readers return Expected<Trace>: malformed lines, bad magic, bad
 * access sizes and unreadable files come back as error Statuses the
 * caller can surface (a CLI fatal()s, a scenario kernel degrades to
 * an error row) instead of killing the process.  A path that names
 * anything but a regular file is an IoError before it is opened.
 */

#ifndef UATM_TRACE_IO_HH
#define UATM_TRACE_IO_HH

#include <cstdint>
#include <iosfwd>
#include <string>

#include "trace/source.hh"
#include "util/status.hh"

namespace uatm {

/**
 * Text format, one reference per line:
 *
 *     <kind> <hex addr> <size> <gap>
 *
 * where kind is 'L', 'S' or 'I'.  Lines starting with '#' and blank
 * lines are ignored on read.
 */
struct TextTraceFormat
{
    /** Write @p trace to @p out. */
    static void write(const Trace &trace, std::ostream &out);

    /** Parse a trace; error Status on malformed input. */
    static Expected<Trace> read(std::istream &in);

    /** File-path conveniences. */
    static Status writeFile(const Trace &trace,
                            const std::string &path);
    static Expected<Trace> readFile(const std::string &path);
};

/**
 * Binary format: a 16-byte header (the 8-byte magic/version, then
 * the record count) followed by fixed 14-byte little-endian records
 * (addr:8, gap:4, size:1, kind:1).  Records are encoded and decoded
 * a chunk at a time, one stream call per chunk.
 */
struct BinaryTraceFormat
{
    static void write(const Trace &trace, std::ostream &out);
    static Expected<Trace> read(std::istream &in);
    static Status writeFile(const Trace &trace,
                            const std::string &path);

    /**
     * Read a trace file.  The header's record count is checked
     * against the file's size before anything is allocated for it:
     * a file too short for its count is truncated, and bytes after
     * the last record are an error too, both ParseErrors.
     */
    static Expected<Trace> readFile(const std::string &path);
};

/** What tells one version of a file on disk from another. */
struct TraceFileStamp
{
    std::uint64_t device = 0;
    std::uint64_t inode = 0;
    std::uint64_t size = 0;
    std::int64_t mtimeSec = 0;
    std::int64_t mtimeNsec = 0;

    bool operator==(const TraceFileStamp &) const = default;
};

/** stat() @p path: IoError when it is missing, unreadable or not a
 *  regular file (a directory, a FIFO, a device). */
Expected<TraceFileStamp> statTraceFile(const std::string &path);

} // namespace uatm

#endif // UATM_TRACE_IO_HH
