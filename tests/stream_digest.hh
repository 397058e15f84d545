/**
 * @file
 * The FNV-1a digest behind the golden tests: reference streams,
 * texts, file bytes and simulator counters hash to one 64-bit value,
 * so a pinned constant catches a change to any one of them.
 */

#ifndef UATM_TESTS_STREAM_DIGEST_HH
#define UATM_TESTS_STREAM_DIGEST_HH

#include <cstdint>
#include <string>

#include "trace/ref.hh"

namespace uatm {

/** FNV-1a over each reference's (addr, size, kind, gap), over the
 *  bytes of a text, or over 64-bit words. */
class StreamDigest
{
  public:
    void add(const MemoryReference &ref)
    {
        mix(ref.addr, 8);
        mix(ref.size, 1);
        mix(static_cast<std::uint64_t>(ref.kind), 1);
        mix(ref.gap, 4);
    }

    void add(const std::string &text)
    {
        for (const char c : text)
            mix(static_cast<unsigned char>(c), 1);
    }

    void add(std::uint64_t word) { mix(word, 8); }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 14695981039346656037ull;

    void mix(std::uint64_t word, int bytes)
    {
        for (int i = 0; i < bytes; ++i) {
            hash_ ^= (word >> (8 * i)) & 0xff;
            hash_ *= 1099511628211ull;
        }
    }
};

} // namespace uatm

#endif // UATM_TESTS_STREAM_DIGEST_HH
