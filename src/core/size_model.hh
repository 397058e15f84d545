/**
 * @file
 * Cache size <-> hit ratio mapping (paper Sec. 5.2, Example 1).
 *
 * The paper quotes Short & Levy's trace-driven points (8K -> 91 %,
 * 32K -> 95.5 %); this model interpolates hit ratio piecewise-
 * linearly in log2(size) between anchor points, and can also be
 * built from a measured sweep of the cache simulator.
 */

#ifndef UATM_CORE_SIZE_MODEL_HH
#define UATM_CORE_SIZE_MODEL_HH

#include <cstdint>
#include <vector>

namespace uatm {

/** One (size, hit ratio) anchor. */
struct SizePoint
{
    std::uint64_t sizeBytes;
    double hitRatio;
};

/**
 * Monotone interpolator over (log2 size, hit ratio) anchors.
 */
class CacheSizeModel
{
  public:
    /** @param points ascending sizes with non-decreasing HR in
     *  [0, 1]; anything else throws StatusError(InvalidArgument). */
    explicit CacheSizeModel(std::vector<SizePoint> points);

    /** Interpolated (clamped at the ends) hit ratio for a size. */
    double hitRatioForSize(double size_bytes) const;

    /**
     * Smallest size achieving @p hit_ratio, by inverse
     * interpolation; clamps to the anchor range.
     */
    double sizeForHitRatio(double hit_ratio) const;

    /** The model's anchors. */
    const std::vector<SizePoint> &points() const { return points_; }

    /**
     * The anchor set quoted from Short & Levy [14] and extended by
     * the Eq. 7 large-mu_m limit (128K at 97.75 %): the basis of
     * the paper's Example 1.
     */
    static CacheSizeModel shortLevy();

  private:
    std::vector<SizePoint> points_;
};

} // namespace uatm

#endif // UATM_CORE_SIZE_MODEL_HH
