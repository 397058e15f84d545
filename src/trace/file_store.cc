/**
 * @file
 * Implementation of the decoded-trace-file store.
 */

#include "trace/file_store.hh"

namespace uatm {

namespace {

Expected<Trace>
decodeFile(const std::string &path, TraceFileFormat format)
{
    return format == TraceFileFormat::Binary
               ? BinaryTraceFormat::readFile(path)
               : TextTraceFormat::readFile(path);
}

std::unique_ptr<TraceSource>
cursorOver(std::shared_ptr<const Trace> trace)
{
    return std::make_unique<SharedTraceCursor>(std::move(trace));
}

} // namespace

TraceFileStore &
TraceFileStore::instance()
{
    static TraceFileStore store;
    return store;
}

Expected<std::unique_ptr<TraceSource>>
TraceFileStore::make(const std::string &path, TraceFileFormat format)
{
    const auto stamp = statTraceFile(path);
    if (!stamp.ok())
        return stamp.status();
    const Key key{stamp.value().device, stamp.value().inode};

    // The decode runs under the lock, so concurrent make()s of one
    // file wait for it and then share it.
    const std::lock_guard<std::mutex> lock(mutex_);
    std::erase_if(entries_, [](const auto &item) {
        return item.second.decoded.expired();
    });
    const auto it = entries_.find(key);
    if (it != entries_.end() && it->second.stamp == stamp.value() &&
        it->second.format == format) {
        if (auto live = it->second.decoded.lock()) {
            lastUsed_ = live;
            return cursorOver(std::move(live));
        }
    }

    ++decodes_;
    auto trace = decodeFile(path, format);
    if (!trace.ok())
        return trace.status();
    auto decoded = std::make_shared<const Trace>(std::move(trace).value());
    entries_[key] = Entry{stamp.value(), format, decoded};
    lastUsed_ = decoded;
    return cursorOver(std::move(decoded));
}

std::uint64_t
TraceFileStore::decodes() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return decodes_;
}

} // namespace uatm
