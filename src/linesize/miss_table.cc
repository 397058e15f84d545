/**
 * @file
 * Implementation of the miss-ratio tables.
 */

#include "linesize/miss_table.hh"

#include <algorithm>

#include "util/status.hh"

namespace uatm {

MissRatioTable::MissRatioTable(std::string name,
                               std::vector<LinePoint> points)
    : name_(std::move(name)), points_(std::move(points))
{
    if (points_.size() < 2) {
        throw StatusError(Status::invalidArgument(
            "miss-ratio table '", name_,
            "' needs at least two line sizes"));
    }
    std::sort(points_.begin(), points_.end(),
              [](const LinePoint &a, const LinePoint &b) {
                  return a.lineBytes < b.lineBytes;
              });
    for (std::size_t i = 1; i < points_.size(); ++i) {
        if (points_[i].lineBytes == points_[i - 1].lineBytes) {
            throw StatusError(Status::invalidArgument(
                "duplicate line size ", points_[i].lineBytes,
                " in table '", name_, "'"));
        }
    }
    for (const auto &p : points_) {
        if (p.missRatio < 0.0 || p.missRatio > 1.0) {
            throw StatusError(Status::invalidArgument(
                "miss ratio out of [0, 1] in table '", name_, "'"));
        }
    }
}

double
MissRatioTable::missRatio(std::uint32_t line_bytes) const
{
    for (const auto &p : points_) {
        if (p.lineBytes == line_bytes)
            return p.missRatio;
    }
    throw StatusError(Status::notFound(
        "table '", name_, "' has no line size ", line_bytes));
}

bool
MissRatioTable::has(std::uint32_t line_bytes) const
{
    return std::any_of(points_.begin(), points_.end(),
                       [line_bytes](const LinePoint &p) {
                           return p.lineBytes == line_bytes;
                       });
}

std::vector<std::uint32_t>
MissRatioTable::lineSizes() const
{
    std::vector<std::uint32_t> sizes;
    sizes.reserve(points_.size());
    for (const auto &p : points_)
        sizes.push_back(p.lineBytes);
    return sizes;
}

MissRatioTable
MissRatioTable::fromSweep(std::string name,
                          const std::vector<SweepPoint> &sweep)
{
    std::vector<LinePoint> points;
    points.reserve(sweep.size());
    for (const auto &s : sweep) {
        points.push_back(LinePoint{
            static_cast<std::uint32_t>(s.value), s.missRatio});
    }
    return MissRatioTable(std::move(name), std::move(points));
}

MissRatioTable
MissRatioTable::designTarget8K()
{
    return MissRatioTable("design-target 8K",
                          {
                              LinePoint{8, 0.085},
                              LinePoint{16, 0.055},
                              LinePoint{32, 0.038},
                              LinePoint{64, 0.031},
                              LinePoint{128, 0.029},
                          });
}

MissRatioTable
MissRatioTable::designTarget16K()
{
    return MissRatioTable("design-target 16K",
                          {
                              LinePoint{8, 0.070},
                              LinePoint{16, 0.042},
                              LinePoint{32, 0.026},
                              LinePoint{64, 0.019},
                              LinePoint{128, 0.016},
                          });
}

} // namespace uatm
