/**
 * @file
 * Miss ratio as a function of line size at fixed cache capacity —
 * the input data of the Smith line-size validation (Figure 6).
 */

#ifndef UATM_LINESIZE_MISS_TABLE_HH
#define UATM_LINESIZE_MISS_TABLE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cache/sweep.hh"

namespace uatm {

/** One (line size, miss ratio) entry. */
struct LinePoint
{
    std::uint32_t lineBytes;
    double missRatio;
};

/**
 * Sorted line-size -> miss-ratio table for one cache size.
 */
class MissRatioTable
{
  public:
    /** At least two distinct line sizes, each with a miss ratio in
     *  [0, 1]; anything else throws StatusError(InvalidArgument). */
    MissRatioTable(std::string name, std::vector<LinePoint> points);

    const std::string &name() const { return name_; }
    const std::vector<LinePoint> &points() const { return points_; }

    /** Miss ratio for an exact table line size; throws
     *  StatusError(NotFound) if absent. */
    double missRatio(std::uint32_t line_bytes) const;

    /** True when the table holds @p line_bytes. */
    bool has(std::uint32_t line_bytes) const;

    /** All line sizes in ascending order. */
    std::vector<std::uint32_t> lineSizes() const;

    /** Build from a simulator line-size sweep. */
    static MissRatioTable fromSweep(std::string name,
                                    const std::vector<SweepPoint> &
                                        sweep);

    /**
     * Design-target-style tables reconstructed so that Smith's
     * criterion places the optima exactly where the paper's
     * Figure 6 panels say (32 B at beta = 2 for the 16K/D=4 and
     * 8K/D=8 cases, 16 B at beta = 3, 64 B at beta = 1); see
     * DESIGN.md's substitution notes.
     */
    static MissRatioTable designTarget8K();
    static MissRatioTable designTarget16K();

  private:
    std::string name_;
    std::vector<LinePoint> points_;
};

} // namespace uatm

#endif // UATM_LINESIZE_MISS_TABLE_HH
