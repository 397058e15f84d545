/**
 * @file
 * Implementation of the set-associative cache model.
 */

#include "cache/cache.hh"

#include <algorithm>
#include <bit>
#include <sstream>

#include "obs/registry.hh"
#include "util/logging.hh"

namespace uatm {

double
CacheStats::hitRatio() const
{
    return accesses ? static_cast<double>(hits) /
                          static_cast<double>(accesses)
                    : 0.0;
}

double
CacheStats::missRatio() const
{
    return accesses ? 1.0 - hitRatio() : 0.0;
}

std::uint64_t
CacheStats::bytesRead(std::uint32_t line_bytes) const
{
    return fills * line_bytes;
}

std::uint64_t
CacheStats::bytesFlushed(std::uint32_t line_bytes) const
{
    return writebacks * line_bytes;
}

double
CacheStats::writeTransfers(std::uint32_t bus_width_bytes) const
{
    if (storesToMemory == 0)
        return 0.0;
    const double avg_bytes =
        static_cast<double>(storesToMemoryBytes) /
        static_cast<double>(storesToMemory);
    const double transfers_per_store = std::max(
        1.0, avg_bytes / static_cast<double>(bus_width_bytes));
    return transfers_per_store *
           static_cast<double>(storesToMemory);
}

CacheStats
CacheStats::since(const CacheStats &start) const
{
    CacheStats window = *this;
    window.accesses -= start.accesses;
    window.loads -= start.loads;
    window.stores -= start.stores;
    window.hits -= start.hits;
    window.misses -= start.misses;
    window.loadMisses -= start.loadMisses;
    window.storeMisses -= start.storeMisses;
    window.fills -= start.fills;
    window.writebacks -= start.writebacks;
    window.storesToMemory -= start.storesToMemory;
    window.storesToMemoryBytes -= start.storesToMemoryBytes;
    window.prefetchInserts -= start.prefetchInserts;
    window.instructions -= start.instructions;
    return window;
}

double
CacheStats::flushRatio(std::uint32_t line_bytes) const
{
    const auto read = bytesRead(line_bytes);
    if (read == 0)
        return 0.0;
    return static_cast<double>(bytesFlushed(line_bytes)) /
           static_cast<double>(read);
}

std::string
CacheStats::format(std::uint32_t line_bytes) const
{
    std::ostringstream os;
    os << "  accesses     = " << accesses << '\n'
       << "  hits         = " << hits << '\n'
       << "  misses       = " << misses << " (load " << loadMisses
       << ", store " << storeMisses << ")\n"
       << "  hit ratio    = " << hitRatio() << '\n'
       << "  fills        = " << fills << " (R = "
       << bytesRead(line_bytes) << " bytes)\n"
       << "  writebacks   = " << writebacks << " (alpha = "
       << flushRatio(line_bytes) << ")\n"
       << "  stores->mem  = " << storesToMemory << '\n'
       << "  instructions = " << instructions << '\n';
    return os.str();
}

// Drift guard: keep registerStats(), since() (and format()) in
// sync with the field list.  Adjust the count when adding counters.
static_assert(sizeof(CacheStats) == 13 * sizeof(std::uint64_t),
              "CacheStats changed: update registerStats() and "
              "since()");

void
CacheStats::registerStats(obs::StatRegistry &registry,
                          const std::string &prefix,
                          std::uint32_t line_bytes) const
{
    const obs::StatGroup root(registry, prefix);
    const auto s = [](std::uint64_t v) {
        return static_cast<double>(v);
    };

    root.addScalar("accesses", s(accesses),
                   "references applied", "count");
    root.addScalar("loads", s(loads), "load references", "count");
    root.addScalar("stores", s(stores), "store references",
                   "count");
    root.addScalar("hits", s(hits), "cache hits", "count");
    root.addScalar("misses", s(misses), "cache misses", "count");
    root.addScalar("load_misses", s(loadMisses), "load misses",
                   "count");
    root.addScalar("store_misses", s(storeMisses), "store misses",
                   "count");
    root.addScalar("fills", s(fills), "demand line fills",
                   "count");
    root.addScalar("writebacks", s(writebacks),
                   "dirty lines flushed on eviction", "count");
    root.addScalar("stores_to_memory", s(storesToMemory),
                   "stores sent past the cache to memory",
                   "count");
    root.addScalar("stores_to_memory_bytes",
                   s(storesToMemoryBytes),
                   "bytes carried by stores to memory", "bytes");
    root.addScalar("prefetch_inserts", s(prefetchInserts),
                   "lines inserted by hardware prefetch", "count");
    root.addScalar("instructions", s(instructions),
                   "instructions E implied by the stream",
                   "count");

    const obs::StatGroup derived = root.group("derived");
    derived.addFormula("hit_ratio", [copy = *this] {
        return copy.hitRatio();
    }, "hits / accesses", "ratio");
    derived.addFormula("miss_ratio", [copy = *this] {
        return copy.missRatio();
    }, "misses / accesses", "ratio");
    derived.addFormula("flush_ratio",
                       [copy = *this, line_bytes] {
        return copy.flushRatio(line_bytes);
    }, "paper's alpha: flushed bytes / read bytes", "ratio");
    derived.addFormula("bytes_read", [copy = *this, line_bytes] {
        return static_cast<double>(copy.bytesRead(line_bytes));
    }, "fills * line size (R)", "bytes");
    derived.addFormula("bytes_flushed",
                       [copy = *this, line_bytes] {
        return static_cast<double>(copy.bytesFlushed(line_bytes));
    }, "writebacks * line size", "bytes");
}

SetAssocCache::SetAssocCache(const CacheConfig &config)
    : config_(config)
{
    okOrThrow(config_.validate());
    setMask_ = config_.numSets() - 1;
    lineShift_ = static_cast<std::uint32_t>(
        std::countr_zero(static_cast<std::uint64_t>(
            config_.lineBytes)));
    lines_.resize(config_.numLines());
    replacement_ = ReplacementPolicy::create(config_);
}

std::uint64_t
SetAssocCache::setIndex(Addr addr) const
{
    return (addr >> lineShift_) & setMask_;
}

Addr
SetAssocCache::lineAddr(Addr addr) const
{
    return addr & ~static_cast<Addr>(config_.lineBytes - 1);
}

SetAssocCache::Line &
SetAssocCache::line(std::uint64_t set, std::uint32_t way)
{
    return lines_[set * config_.assoc + way];
}

const SetAssocCache::Line &
SetAssocCache::line(std::uint64_t set, std::uint32_t way) const
{
    return lines_[set * config_.assoc + way];
}

std::optional<std::uint32_t>
SetAssocCache::findWay(std::uint64_t set, Addr line_addr) const
{
    for (std::uint32_t w = 0; w < config_.assoc; ++w) {
        const Line &l = line(set, w);
        if (l.valid && l.tag == line_addr)
            return w;
    }
    return std::nullopt;
}

std::uint32_t
SetAssocCache::wayToFill(std::uint64_t set)
{
    for (std::uint32_t w = 0; w < config_.assoc; ++w) {
        if (!line(set, w).valid)
            return w;
    }
    const std::uint32_t victim = replacement_->victim(set);
    UATM_ASSERT(victim < config_.assoc, "replacement returned way ",
                victim, " >= assoc ", config_.assoc);
    return victim;
}

void
throwAccessWiderThanLine(unsigned size, std::uint32_t line_bytes)
{
    throw StatusError(Status::invalidArgument(
        "access size ", size, " exceeds the line size ", line_bytes));
}

AccessOutcome
SetAssocCache::access(const MemoryReference &ref)
{
    UATM_ASSERT(isValidAccessSize(ref.size),
                "invalid access size ", int(ref.size));
    if (ref.size > config_.lineBytes) [[unlikely]]
        throwAccessWiderThanLine(ref.size, config_.lineBytes);

    AccessOutcome out;
    const Addr laddr = lineAddr(ref.addr);
    const std::uint64_t set = setIndex(ref.addr);
    out.lineAddr = laddr;

    const bool is_store = ref.kind == RefKind::Store;
    ++stats_.accesses;
    stats_.instructions += static_cast<std::uint64_t>(ref.gap) + 1;
    if (is_store)
        ++stats_.stores;
    else
        ++stats_.loads;

    if (auto way = findWay(set, laddr)) {
        // Hit.
        out.hit = true;
        ++stats_.hits;
        replacement_->touch(set, *way);
        if (is_store) {
            if (config_.write == WritePolicy::WriteBack) {
                line(set, *way).dirty = true;
            } else {
                out.storeToMemory = true;
                ++stats_.storesToMemory;
                stats_.storesToMemoryBytes += ref.size;
            }
        }
        return out;
    }

    // Miss.
    ++stats_.misses;
    if (is_store)
        ++stats_.storeMisses;
    else
        ++stats_.loadMisses;

    const bool allocate =
        !is_store || config_.writeMiss == WriteMissPolicy::WriteAllocate;

    if (!allocate) {
        // Write-around store miss: goes straight to memory.
        out.storeToMemory = true;
        ++stats_.storesToMemory;
        stats_.storesToMemoryBytes += ref.size;
        return out;
    }

    const std::uint32_t victim = wayToFill(set);
    Line &slot = line(set, victim);
    if (slot.valid) {
        out.evictedValid = true;
        out.evictedLineAddr = slot.tag;
        out.evictedDirty = slot.dirty;
        if (slot.dirty) {
            out.writeback = true;
            out.victimLineAddr = slot.tag;
            ++stats_.writebacks;
        }
    }

    slot.tag = laddr;
    slot.valid = true;
    slot.dirty = false;
    out.fill = true;
    ++stats_.fills;
    replacement_->touch(set, victim);

    if (is_store) {
        if (config_.write == WritePolicy::WriteBack) {
            slot.dirty = true;
        } else {
            out.storeToMemory = true;
            ++stats_.storesToMemory;
            stats_.storesToMemoryBytes += ref.size;
        }
    }
    return out;
}

PrefetchOutcome
SetAssocCache::prefetchLine(Addr addr)
{
    const InstallOutcome installed = installLine(addr, false);
    PrefetchOutcome out;
    out.inserted = installed.inserted;
    if (installed.evictedValid && installed.evictedDirty) {
        out.writeback = true;
        out.victimLineAddr = installed.evictedLineAddr;
        ++stats_.writebacks;
    }
    if (installed.inserted)
        ++stats_.prefetchInserts;
    return out;
}

InstallOutcome
SetAssocCache::installLine(Addr addr, bool dirty)
{
    InstallOutcome out;
    const Addr laddr = lineAddr(addr);
    const std::uint64_t set = setIndex(addr);
    if (findWay(set, laddr))
        return out; // already resident: nothing to do

    const std::uint32_t victim = wayToFill(set);
    Line &slot = line(set, victim);
    if (slot.valid) {
        out.evictedValid = true;
        out.evictedLineAddr = slot.tag;
        out.evictedDirty = slot.dirty;
    }
    slot.tag = laddr;
    slot.valid = true;
    slot.dirty = dirty;
    out.inserted = true;
    replacement_->touch(set, victim);
    return out;
}

bool
SetAssocCache::probe(Addr addr) const
{
    return findWay(setIndex(addr), lineAddr(addr)).has_value();
}

bool
SetAssocCache::probeDirty(Addr addr) const
{
    const std::uint64_t set = setIndex(addr);
    const Addr laddr = lineAddr(addr);
    if (auto way = findWay(set, laddr))
        return line(set, *way).dirty;
    return false;
}

std::uint64_t
SetAssocCache::invalidateAll()
{
    std::uint64_t dirty = 0;
    for (auto &l : lines_) {
        if (l.valid && l.dirty)
            ++dirty;
        l = Line{};
    }
    replacement_->reset();
    return dirty;
}

void
SetAssocCache::reset()
{
    invalidateAll();
    stats_ = CacheStats{};
}

} // namespace uatm
