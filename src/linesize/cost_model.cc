/**
 * @file
 * Implementation of the cache silicon-cost model.
 */

#include "linesize/cost_model.hh"

#include <bit>
#include <limits>

#include "util/logging.hh"

namespace uatm {

Status
CacheAreaModel::validate() const
{
    if (addressBits < 16 || addressBits > 64) {
        return Status::invalidArgument(
            "address width ", addressBits, " is not plausible");
    }
    return Status();
}

std::uint32_t
CacheAreaModel::tagBits(const CacheConfig &config) const
{
    okOrThrow(validate());
    okOrThrow(config.validate());
    const auto offset_bits = static_cast<std::uint32_t>(
        std::countr_zero(
            static_cast<std::uint64_t>(config.lineBytes)));
    const auto index_bits = static_cast<std::uint32_t>(
        std::countr_zero(config.numSets()));
    UATM_ASSERT(addressBits > offset_bits + index_bits,
                "address narrower than offset + index");
    return addressBits - offset_bits - index_bits;
}

std::uint64_t
CacheAreaModel::dataBits(const CacheConfig &config) const
{
    return config.sizeBytes * 8;
}

std::uint64_t
CacheAreaModel::overheadBits(const CacheConfig &config) const
{
    const std::uint64_t per_line = tagBits(config) +
                                   stateBitsPerLine +
                                   replacementBitsPerLine;
    return config.numLines() * per_line;
}

std::uint64_t
CacheAreaModel::totalBits(const CacheConfig &config) const
{
    return dataBits(config) + overheadBits(config);
}

double
CacheAreaModel::overheadFraction(const CacheConfig &config) const
{
    return static_cast<double>(overheadBits(config)) /
           static_cast<double>(totalBits(config));
}

std::vector<CostEffectivenessPoint>
costEffectivenessSweep(const MissRatioTable &table,
                       const LineDelayModel &delay,
                       const CacheAreaModel &area,
                       CacheConfig geometry)
{
    okOrThrow(delay.validate());
    std::vector<CostEffectivenessPoint> points;
    for (const auto &entry : table.points()) {
        geometry.lineBytes = entry.lineBytes;
        okOrThrow(geometry.validate());
        CostEffectivenessPoint point;
        point.lineBytes = entry.lineBytes;
        point.meanMemoryDelay = delay.meanMemoryDelay(
            entry.missRatio,
            static_cast<double>(entry.lineBytes));
        point.totalBits = area.totalBits(geometry);
        point.overheadFraction = area.overheadFraction(geometry);
        point.delayAreaProduct =
            point.meanMemoryDelay *
            static_cast<double>(point.totalBits);
        points.push_back(point);
    }
    return points;
}

std::uint32_t
costEffectiveLine(const MissRatioTable &table,
                  const LineDelayModel &delay,
                  const CacheAreaModel &area, CacheConfig geometry)
{
    const auto points =
        costEffectivenessSweep(table, delay, area, geometry);
    std::uint32_t best_line = 0;
    double best = std::numeric_limits<double>::infinity();
    for (const auto &point : points) {
        if (point.delayAreaProduct < best) {
            best = point.delayAreaProduct;
            best_line = point.lineBytes;
        }
    }
    UATM_ASSERT(best_line != 0, "empty cost sweep");
    return best_line;
}

} // namespace uatm
