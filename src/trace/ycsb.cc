/**
 * @file
 * Implementation of the YCSB-style key-value workload.
 */

#include "trace/ycsb.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cctype>
#include <cmath>
#include <mutex>

#include "util/logging.hh"

namespace uatm {

namespace {

/** zeta(n, theta) = sum_{i=1..n} 1/i^theta. */
double
zetaSum(std::uint64_t n, double theta)
{
    double sum = 0.0;
    for (std::uint64_t i = 1; i <= n; ++i)
        sum += 1.0 / std::pow(static_cast<double>(i), theta);
    return sum;
}

/**
 * zetaSum() memoized process-wide.  The sum is a pure function of
 * (n, theta), so a remembered value is bit-identical to a fresh
 * one; the memo only skips the O(n) loop when a process builds the
 * same keyspace again (runner shards and served points each build
 * their own source).  A handful of entries, replaced oldest first,
 * bounds its memory; the sum itself runs outside the lock.
 */
double
memoZetaSum(std::uint64_t n, double theta)
{
    struct Entry
    {
        std::uint64_t n = 0;
        std::uint64_t thetaBits = 0;
        double zeta = 0.0;
    };
    static constexpr std::size_t kEntries = 8;
    static std::mutex mutex;
    static std::array<Entry, kEntries> memo;
    static std::size_t used = 0;

    const auto bits = std::bit_cast<std::uint64_t>(theta);
    // Call with the mutex held.
    const auto lookup = [&]() -> const Entry * {
        for (std::size_t i = 0; i < std::min(used, kEntries); ++i) {
            if (memo[i].n == n && memo[i].thetaBits == bits)
                return &memo[i];
        }
        return nullptr;
    };
    {
        const std::lock_guard<std::mutex> lock(mutex);
        if (const Entry *hit = lookup())
            return hit->zeta;
    }
    const double zeta = zetaSum(n, theta);
    const std::lock_guard<std::mutex> lock(mutex);
    if (!lookup())
        memo[used++ % kEntries] = Entry{n, bits, zeta};
    return zeta;
}

/** FNV-1a over the 8 bytes of @p key, to scatter zipfian ranks. */
std::uint64_t
fnv64(std::uint64_t key)
{
    std::uint64_t hash = 14695981039346656037ull;
    for (int i = 0; i < 8; ++i) {
        hash ^= (key >> (8 * i)) & 0xff;
        hash *= 1099511628211ull;
    }
    return hash;
}

} // namespace

ZipfianSampler::ZipfianSampler(std::uint64_t items, double theta)
    : items_(items), theta_(theta),
      zetan_(memoZetaSum(items, theta)),
      rankOneBound_(1.0 + std::pow(0.5, theta)),
      alpha_(1.0 / (1.0 - theta))
{
    UATM_ASSERT(items_ > 0, "zipfian sampler needs >= 1 item");
    UATM_ASSERT(theta_ >= 0.0 && theta_ < 1.0,
                "zipfian theta must be in [0, 1), got ", theta_);
    refresh();
}

void
ZipfianSampler::refresh()
{
    // Gray et al.'s eta term; the n = 1 domain never consults it
    // (uz < 1 always holds when zetan == 1).
    const double n = static_cast<double>(items_);
    const double zeta2 = zetaSum(std::min<std::uint64_t>(items_, 2),
                                 theta_);
    const double denom = 1.0 - zeta2 / zetan_;
    eta_ = denom != 0.0
               ? (1.0 - std::pow(2.0 / n, 1.0 - theta_)) / denom
               : 0.0;
}

std::uint64_t
ZipfianSampler::next(Rng &rng) const
{
    const double u = rng.nextDouble();
    const double uz = u * zetan_;
    if (uz < 1.0)
        return 0;
    if (uz < rankOneBound_)
        return 1;
    const double n = static_cast<double>(items_);
    const auto rank = static_cast<std::uint64_t>(
        n * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return rank >= items_ ? items_ - 1 : rank;
}

void
ZipfianSampler::grow()
{
    ++items_;
    zetan_ += 1.0 / std::pow(static_cast<double>(items_), theta_);
    refresh();
}

Expected<YcsbWorkload::Mix>
YcsbWorkload::parseMix(std::string_view name)
{
    if (name.size() == 1) {
        switch (std::tolower(static_cast<unsigned char>(name[0]))) {
          case 'a':
            return Mix::A;
          case 'b':
            return Mix::B;
          case 'c':
            return Mix::C;
          case 'd':
            return Mix::D;
          case 'e':
            return Mix::E;
          case 'f':
            return Mix::F;
          default:
            break;
        }
    }
    return Status::parseError("unknown YCSB mix '",
                              std::string(name),
                              "' (expected a..f)");
}

const char *
YcsbWorkload::mixName(Mix mix)
{
    switch (mix) {
      case Mix::A:
        return "a";
      case Mix::B:
        return "b";
      case Mix::C:
        return "c";
      case Mix::D:
        return "d";
      case Mix::E:
        return "e";
      case Mix::F:
        return "f";
    }
    return "?";
}

YcsbWorkload::YcsbWorkload(const Config &config, Rng rng)
    : config_(config), rng_(rng), initialRng_(rng),
      zipf_(config.records, config.theta),
      initialZipf_(zipf_), recordCount_(config.records)
{
    UATM_ASSERT(config_.records > 0, "ycsb needs >= 1 record");
    UATM_ASSERT(isValidAccessSize(config_.accessSize),
                "bad ycsb access size ", config_.accessSize);
    UATM_ASSERT(config_.recordBytes >= config_.accessSize,
                "ycsb record smaller than one access");
    UATM_ASSERT(config_.fieldsPerOp >= 1,
                "ycsb needs >= 1 field per op");
    UATM_ASSERT(config_.maxScanLen >= 1,
                "ycsb needs >= 1 record per scan");
}

std::uint64_t
YcsbWorkload::sampleKey()
{
    if (!config_.zipfian)
        return rng_.nextBelow(recordCount_);
    const std::uint64_t rank = zipf_.next(rng_);
    return fnv64(rank) % recordCount_;
}

Addr
YcsbWorkload::fieldAddr(std::uint64_t key,
                        std::uint32_t field) const
{
    const Addr record = config_.base + key * config_.recordBytes;
    const std::uint32_t offset =
        (field * config_.accessSize) % config_.recordBytes;
    return record + offset;
}

MemoryReference
YcsbWorkload::emit(Addr addr, RefKind kind)
{
    MemoryReference ref;
    ref.addr = addr;
    ref.size = static_cast<std::uint8_t>(config_.accessSize);
    ref.kind = kind;
    ref.gap = config_.gap.sample(rng_);
    return ref;
}

void
YcsbWorkload::beginOp()
{
    const std::uint64_t roll = rng_.nextBelow(100);
    switch (config_.mix) {
      case Mix::A:
        op_ = roll < 50 ? Op::Read : Op::Update;
        break;
      case Mix::B:
        op_ = roll < 95 ? Op::Read : Op::Update;
        break;
      case Mix::C:
        op_ = Op::Read;
        break;
      case Mix::D:
        op_ = roll < 95 ? Op::Read : Op::Insert;
        break;
      case Mix::E:
        op_ = roll < 95 ? Op::Scan : Op::Insert;
        break;
      case Mix::F:
        op_ = roll < 50 ? Op::Read : Op::ReadModifyWrite;
        break;
    }

    field_ = 0;
    switch (op_) {
      case Op::Insert:
        // Appends extend the keyspace; subsequent draws see the
        // new record.
        key_ = recordCount_++;
        zipf_.grow();
        refsLeftInOp_ = config_.fieldsPerOp;
        break;
      case Op::Scan:
        key_ = sampleKey();
        refsLeftInOp_ = 1 + rng_.nextBelow(config_.maxScanLen);
        break;
      case Op::Read:
        if (config_.mix == Mix::D) {
            // Latest-skewed: rank 0 is the most recent insert.
            const std::uint64_t rank = zipf_.next(rng_);
            key_ = recordCount_ - 1 - rank;
        } else {
            key_ = sampleKey();
        }
        refsLeftInOp_ = config_.fieldsPerOp;
        break;
      case Op::Update:
        key_ = sampleKey();
        refsLeftInOp_ = config_.fieldsPerOp;
        break;
      case Op::ReadModifyWrite:
        key_ = sampleKey();
        refsLeftInOp_ = config_.fieldsPerOp + 1;
        break;
    }
}

std::optional<MemoryReference>
YcsbWorkload::next()
{
    if (refsLeftInOp_ == 0)
        beginOp();
    --refsLeftInOp_;

    switch (op_) {
      case Op::Read:
        return emit(fieldAddr(key_, field_++), RefKind::Load);
      case Op::Update:
      case Op::Insert:
        return emit(fieldAddr(key_, field_++), RefKind::Store);
      case Op::Scan: {
        // One streaming access per scanned record.
        const Addr addr = fieldAddr(key_, 0);
        key_ = (key_ + 1) % recordCount_;
        return emit(addr, RefKind::Load);
      }
      case Op::ReadModifyWrite:
        // fieldsPerOp loads, then the write-back of field 0.
        if (refsLeftInOp_ == 0)
            return emit(fieldAddr(key_, 0), RefKind::Store);
        return emit(fieldAddr(key_, field_++), RefKind::Load);
    }
    return std::nullopt;
}

void
YcsbWorkload::reset()
{
    rng_ = initialRng_;
    zipf_ = initialZipf_;
    recordCount_ = config_.records;
    refsLeftInOp_ = 0;
    field_ = 0;
    key_ = 0;
}

std::size_t
YcsbWorkload::fillBatch(MemoryReference *out, std::size_t max_refs)
{
    for (std::size_t i = 0; i < max_refs; ++i)
        out[i] = *YcsbWorkload::next();
    return max_refs;
}

} // namespace uatm
