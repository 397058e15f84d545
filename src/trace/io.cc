/**
 * @file
 * Implementation of the trace file formats.
 */

#include "trace/io.hh"

#include <sys/stat.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

#include "util/logging.hh"

namespace uatm {

namespace {

char
kindToChar(RefKind kind)
{
    switch (kind) {
      case RefKind::Load:
        return 'L';
      case RefKind::Store:
        return 'S';
      case RefKind::IFetch:
        return 'I';
    }
    panic("unknown RefKind");
}

Expected<RefKind>
charToKind(char c)
{
    switch (c) {
      case 'L':
        return RefKind::Load;
      case 'S':
        return RefKind::Store;
      case 'I':
        return RefKind::IFetch;
      default:
        return Status::parseError("bad reference kind character '", c,
                                  "' in trace");
    }
}

constexpr std::uint64_t kBinaryMagic = 0x5541544d54524331ull; // UATMTRC1

/** Bytes of the binary header (magic, count) and of one record. */
constexpr std::uint64_t kHeaderBytes = 16;
constexpr std::size_t kRecordBytes = 14;

/** Records encoded or decoded per stream call. */
constexpr std::size_t kChunkRecords = BatchPump::kBatchRefs;

using RecordChunk = std::array<char, kChunkRecords * kRecordBytes>;

void
encodeRecord(const MemoryReference &ref, char *record)
{
    std::memcpy(record, &ref.addr, 8);
    std::memcpy(record + 8, &ref.gap, 4);
    record[12] = static_cast<char>(ref.size);
    record[13] = static_cast<char>(ref.kind);
}

/**
 * Decode the @p count records at @p bytes onto @p out.  The first
 * is record @p first of its trace, the index a bad kind or access
 * size is reported at.
 */
Status
decodeRecords(const char *bytes, std::size_t count, std::uint64_t first,
              std::vector<MemoryReference> &out)
{
    for (std::size_t i = 0; i < count; ++i) {
        const char *record = bytes + i * kRecordBytes;
        MemoryReference ref;
        std::memcpy(&ref.addr, record, 8);
        std::memcpy(&ref.gap, record + 8, 4);
        ref.size = static_cast<std::uint8_t>(record[12]);
        const auto kind_raw = static_cast<std::uint8_t>(record[13]);
        if (kind_raw > static_cast<std::uint8_t>(RefKind::IFetch)) {
            return Status::parseError(
                "bad reference kind in binary trace record ",
                first + i);
        }
        ref.kind = static_cast<RefKind>(kind_raw);
        if (!isValidAccessSize(ref.size)) {
            return Status::parseError(
                "bad access size in binary trace record ", first + i);
        }
        out.push_back(ref);
    }
    return Status();
}

/** Read the header; the record count it claims. */
Expected<std::uint64_t>
readHeader(std::istream &in)
{
    std::uint64_t magic = 0;
    in.read(reinterpret_cast<char *>(&magic), sizeof(magic));
    if (!in || magic != kBinaryMagic)
        return Status::parseError("not a uatm binary trace (bad magic)");
    std::uint64_t count = 0;
    in.read(reinterpret_cast<char *>(&count), sizeof(count));
    if (!in)
        return Status::parseError("truncated binary trace header");
    return count;
}

/** Read and decode @p count records onto @p out, one stream call
 *  per chunk; a short read is a truncation at its first missing
 *  record. */
Status
readRecords(std::istream &in, std::uint64_t count,
            std::vector<MemoryReference> &out)
{
    RecordChunk bytes;
    for (std::uint64_t first = 0; first < count;) {
        const auto want = static_cast<std::size_t>(
            std::min<std::uint64_t>(kChunkRecords, count - first));
        in.read(bytes.data(),
                static_cast<std::streamsize>(want * kRecordBytes));
        const auto got =
            static_cast<std::size_t>(in.gcount()) / kRecordBytes;
        if (Status s = decodeRecords(bytes.data(), got, first, out);
            !s.ok())
            return s;
        if (got < want) {
            return Status::parseError(
                "truncated binary trace at record ", first + got);
        }
        first += want;
    }
    return Status();
}

Status
cannotOpen(const std::string &path)
{
    return Status::ioError("cannot open trace file '", path,
                           "' for reading");
}

} // namespace

Expected<TraceFileStamp>
statTraceFile(const std::string &path)
{
    struct stat st = {};
    if (::stat(path.c_str(), &st) != 0)
        return cannotOpen(path);
    if (!S_ISREG(st.st_mode)) {
        return Status::ioError("trace file '", path,
                               "' is not a regular file");
    }
    TraceFileStamp stamp;
    stamp.device = st.st_dev;
    stamp.inode = st.st_ino;
    stamp.size = static_cast<std::uint64_t>(st.st_size);
    stamp.mtimeSec = st.st_mtim.tv_sec;
    stamp.mtimeNsec = st.st_mtim.tv_nsec;
    return stamp;
}

void
TextTraceFormat::write(const Trace &trace, std::ostream &out)
{
    out << "# uatm text trace, " << trace.size() << " references\n";
    for (const auto &ref : trace.refs()) {
        out << kindToChar(ref.kind) << ' ' << std::hex << ref.addr
            << std::dec << ' ' << unsigned(ref.size) << ' '
            << ref.gap << '\n';
    }
}

Expected<Trace>
TextTraceFormat::read(std::istream &in)
{
    Trace trace;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        char kind_char = 0;
        std::uint64_t addr = 0;
        unsigned size = 0;
        std::uint32_t gap = 0;
        ls >> kind_char >> std::hex >> addr >> std::dec >> size >> gap;
        if (!ls) {
            return Status::parseError("malformed trace line ", lineno,
                                      ": '", line, "'");
        }
        if (!isValidAccessSize(static_cast<std::uint8_t>(size))) {
            return Status::parseError("bad access size ", size,
                                      " on trace line ", lineno);
        }
        auto kind = charToKind(kind_char);
        if (!kind.ok())
            return kind.status();
        MemoryReference ref;
        ref.kind = kind.value();
        ref.addr = addr;
        ref.size = static_cast<std::uint8_t>(size);
        ref.gap = gap;
        trace.append(ref);
    }
    return trace;
}

Status
TextTraceFormat::writeFile(const Trace &trace, const std::string &path)
{
    std::ofstream out(path, std::ios::out);
    if (!out) {
        return Status::ioError("cannot open trace file '", path,
                               "' for writing");
    }
    write(trace, out);
    return Status();
}

Expected<Trace>
TextTraceFormat::readFile(const std::string &path)
{
    if (auto stamp = statTraceFile(path); !stamp.ok())
        return stamp.status();
    std::ifstream in(path, std::ios::in);
    if (!in)
        return cannotOpen(path);
    return read(in);
}

void
BinaryTraceFormat::write(const Trace &trace, std::ostream &out)
{
    std::uint64_t magic = kBinaryMagic;
    out.write(reinterpret_cast<const char *>(&magic), sizeof(magic));
    std::uint64_t count = trace.size();
    out.write(reinterpret_cast<const char *>(&count), sizeof(count));
    const std::vector<MemoryReference> &refs = trace.refs();
    RecordChunk bytes;
    for (std::size_t first = 0; first < refs.size();
         first += kChunkRecords) {
        const std::size_t n =
            std::min(kChunkRecords, refs.size() - first);
        for (std::size_t i = 0; i < n; ++i)
            encodeRecord(refs[first + i], bytes.data() + i * kRecordBytes);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(n * kRecordBytes));
    }
}

Expected<Trace>
BinaryTraceFormat::read(std::istream &in)
{
    const auto count = readHeader(in);
    if (!count.ok())
        return count.status();
    std::vector<MemoryReference> refs;
    if (Status s = readRecords(in, count.value(), refs); !s.ok())
        return s;
    return Trace(std::move(refs));
}

Status
BinaryTraceFormat::writeFile(const Trace &trace,
                             const std::string &path)
{
    std::ofstream out(path, std::ios::out | std::ios::binary);
    if (!out) {
        return Status::ioError("cannot open trace file '", path,
                               "' for writing");
    }
    write(trace, out);
    return Status();
}

Expected<Trace>
BinaryTraceFormat::readFile(const std::string &path)
{
    const auto stamp = statTraceFile(path);
    if (!stamp.ok())
        return stamp.status();
    std::ifstream in(path, std::ios::in | std::ios::binary);
    if (!in)
        return cannotOpen(path);
    const auto count = readHeader(in);
    if (!count.ok())
        return count.status();

    // The count is outside input: hold it to the file's size before
    // allocating for it.
    const std::uint64_t size = stamp.value().size;
    const std::uint64_t body = size > kHeaderBytes ? size - kHeaderBytes
                                                   : 0;
    const std::uint64_t whole = body / kRecordBytes;
    if (count.value() > whole) {
        return Status::parseError("truncated binary trace at record ",
                                  whole);
    }
    if (const std::uint64_t extra = body - count.value() * kRecordBytes;
        extra != 0) {
        return Status::parseError("binary trace '", path, "' has ",
                                  extra, " bytes after its last record ",
                                  "(record count ", count.value(), ")");
    }

    std::vector<MemoryReference> refs;
    refs.reserve(count.value());
    if (Status s = readRecords(in, count.value(), refs); !s.ok())
        return s;
    return Trace(std::move(refs));
}

} // namespace uatm
