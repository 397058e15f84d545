/**
 * @file
 * Implementation of the cache size <-> hit ratio model.
 */

#include "core/size_model.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"
#include "util/status.hh"

namespace uatm {

CacheSizeModel::CacheSizeModel(std::vector<SizePoint> points)
    : points_(std::move(points))
{
    if (points_.size() < 2) {
        throw StatusError(Status::invalidArgument(
            "size model needs at least two anchor points"));
    }
    for (std::size_t i = 1; i < points_.size(); ++i) {
        if (points_[i].sizeBytes <= points_[i - 1].sizeBytes) {
            throw StatusError(Status::invalidArgument(
                "size model anchors must have ascending sizes"));
        }
        if (points_[i].hitRatio < points_[i - 1].hitRatio) {
            throw StatusError(Status::invalidArgument(
                "size model anchors must have non-decreasing hit "
                "ratios"));
        }
    }
    for (const auto &p : points_) {
        if (p.hitRatio < 0.0 || p.hitRatio > 1.0) {
            throw StatusError(Status::invalidArgument(
                "anchor hit ratio out of [0, 1]"));
        }
    }
}

double
CacheSizeModel::hitRatioForSize(double size_bytes) const
{
    UATM_ASSERT(size_bytes > 0, "size must be positive");
    const double x = std::log2(size_bytes);
    const double x0 =
        std::log2(static_cast<double>(points_.front().sizeBytes));
    const double xn =
        std::log2(static_cast<double>(points_.back().sizeBytes));
    if (x <= x0)
        return points_.front().hitRatio;
    if (x >= xn)
        return points_.back().hitRatio;
    for (std::size_t i = 1; i < points_.size(); ++i) {
        const double xi = std::log2(
            static_cast<double>(points_[i].sizeBytes));
        if (x <= xi) {
            const double xim1 = std::log2(
                static_cast<double>(points_[i - 1].sizeBytes));
            const double t = (x - xim1) / (xi - xim1);
            return points_[i - 1].hitRatio +
                   t * (points_[i].hitRatio -
                        points_[i - 1].hitRatio);
        }
    }
    return points_.back().hitRatio;
}

double
CacheSizeModel::sizeForHitRatio(double hit_ratio) const
{
    if (hit_ratio <= points_.front().hitRatio)
        return static_cast<double>(points_.front().sizeBytes);
    if (hit_ratio >= points_.back().hitRatio)
        return static_cast<double>(points_.back().sizeBytes);
    for (std::size_t i = 1; i < points_.size(); ++i) {
        if (hit_ratio <= points_[i].hitRatio) {
            const double h0 = points_[i - 1].hitRatio;
            const double h1 = points_[i].hitRatio;
            const double x0 = std::log2(
                static_cast<double>(points_[i - 1].sizeBytes));
            const double x1 = std::log2(
                static_cast<double>(points_[i].sizeBytes));
            // Flat segments cannot be inverted past their start.
            if (h1 == h0)
                return std::exp2(x0);
            const double t = (hit_ratio - h0) / (h1 - h0);
            return std::exp2(x0 + t * (x1 - x0));
        }
    }
    return static_cast<double>(points_.back().sizeBytes);
}

CacheSizeModel
CacheSizeModel::shortLevy()
{
    // 8K and 32K are quoted in Example 1 from [14]; 128K extends
    // the curve by the paper's Case 2 (64-bit/32K == 32-bit/128K
    // via the Eq. 7 limit dHR = 0.5 (1 - HR)).
    return CacheSizeModel({
        SizePoint{8 * 1024, 0.910},
        SizePoint{32 * 1024, 0.955},
        SizePoint{128 * 1024, 0.9775},
    });
}

} // namespace uatm
