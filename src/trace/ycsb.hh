/**
 * @file
 * YCSB-style key-value workload generator.
 *
 * Models the six core YCSB mixes (A-F) as a memory-reference
 * stream: each operation picks a record by a zipfian or uniform
 * key distribution, maps the key to a record-sized address range,
 * and touches a few fields of it.  Inserts (mixes D and E) grow
 * the keyspace, and mix D reads with a latest-skewed distribution
 * so recently inserted records stay hot — the standard YCSB
 * semantics, reduced to the address behaviour the cache models
 * care about.
 *
 * The zipfian sampler is Gray et al.'s rejection-free inversion
 * (the same construction YCSB's ZipfianGenerator uses), with an
 * O(1) incremental domain extension for growing keyspaces.
 * Zipfian ranks are scattered over the keyspace with an FNV hash
 * (YCSB's "scrambled zipfian") so hot records are not physically
 * adjacent, which would otherwise overstate spatial locality.
 */

#ifndef UATM_TRACE_YCSB_HH
#define UATM_TRACE_YCSB_HH

#include <cstdint>
#include <string_view>

#include "trace/generators.hh"
#include "trace/source.hh"
#include "util/random.hh"
#include "util/status.hh"

namespace uatm {

/**
 * Zipfian rank sampler over [0, items): P(r) proportional to
 * 1/(r+1)^theta, theta in [0, 1).  Construction is O(items) (the
 * zeta sum, memoized per process for a few recent (items, theta)
 * pairs); sampling is O(1); grow() extends the domain by one item
 * in O(1).
 */
class ZipfianSampler
{
  public:
    ZipfianSampler(std::uint64_t items, double theta);

    std::uint64_t items() const { return items_; }

    /** Draw one rank in [0, items()); rank 0 is the hottest. */
    std::uint64_t next(Rng &rng) const;

    /** Extend the domain to items() + 1. */
    void grow();

  private:
    std::uint64_t items_;
    double theta_;
    double zetan_;  ///< zeta(items, theta)
    double eta_;
    double rankOneBound_; ///< 1 + 0.5^theta: uz below it is rank 1
    double alpha_;        ///< 1 / (1 - theta)

    void refresh();
};

/**
 * YCSB A-F key-value access stream.  Endless; reset() rewinds.
 */
class YcsbWorkload : public TraceSource
{
  public:
    /** The six core YCSB workload mixes. */
    enum class Mix : std::uint8_t
    {
        A, ///< 50% read / 50% update (update heavy)
        B, ///< 95% read / 5% update (read mostly)
        C, ///< 100% read
        D, ///< 95% read-latest / 5% insert
        E, ///< 95% short scan / 5% insert
        F, ///< 50% read / 50% read-modify-write
    };

    /** "a".."f" (case-insensitive); ParseError otherwise. */
    static Expected<Mix> parseMix(std::string_view name);

    /** "a".."f". */
    static const char *mixName(Mix mix);

    struct Config
    {
        Mix mix = Mix::A;
        /** Records loaded before the run (inserts grow this). */
        std::uint64_t records = 100000;
        /** Zipfian skew; 0.99 is the YCSB default. */
        double theta = 0.99;
        /** false draws keys uniformly instead. */
        bool zipfian = true;
        Addr base = 0x40000000;
        /** Bytes per record (key -> base + key * recordBytes). */
        std::uint32_t recordBytes = 64;
        std::uint32_t accessSize = 8;
        /** Fields touched per read/update/insert operation. */
        std::uint32_t fieldsPerOp = 2;
        /** Scan length for mix E is uniform in [1, maxScanLen]. */
        std::uint32_t maxScanLen = 50;
        GapModel gap;
    };

    YcsbWorkload(const Config &config, Rng rng);

    void reset() override;
    std::size_t fillBatch(MemoryReference *out,
                          std::size_t max_refs) override;

  private:
    enum class Op : std::uint8_t
    {
        Read,
        Update,
        Insert,
        Scan,
        ReadModifyWrite,
    };

    Config config_;
    Rng rng_;
    Rng initialRng_;
    ZipfianSampler zipf_;
    ZipfianSampler initialZipf_; ///< pre-insert state, for reset()
    std::uint64_t recordCount_;

    // In-flight operation state.
    Op op_ = Op::Read;
    std::uint64_t key_ = 0;
    std::uint32_t field_ = 0;
    std::uint64_t refsLeftInOp_ = 0;

    void beginOp();
    /** The in-flight operation's next reference, beginning an
     *  operation when the last one is done. */
    MemoryReference step();
    std::uint64_t sampleKey();
    Addr fieldAddr(std::uint64_t key, std::uint32_t field) const;
    MemoryReference emit(Addr addr, RefKind kind);
};

} // namespace uatm

#endif // UATM_TRACE_YCSB_HH
