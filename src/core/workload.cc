/**
 * @file
 * Implementation of the workload characterisation.
 */

#include "core/workload.hh"

#include <sstream>

#include "util/logging.hh"

namespace uatm {

Status
Workload::validate(double line_bytes) const
{
    // Each check is written so that a NaN fails it.
    if (!(instructions > 0)) {
        return Status::invalidArgument(
            "workload needs a positive instruction count, got ",
            instructions);
    }
    if (!(bytesRead >= 0 && instrBytesRead >= 0 &&
          writeArounds >= 0)) {
        return Status::invalidArgument(
            "workload byte/instruction counts must be non-negative, "
            "got bytes read ", bytesRead, ", instruction bytes read ",
            instrBytesRead, ", write-arounds ", writeArounds);
    }
    if (!(flushRatio >= 0.0 && flushRatio <= 1.0)) {
        return Status::invalidArgument(
            "flush ratio alpha must lie in [0, 1], got ", flushRatio);
    }
    if (!(dataRefs > 0)) {
        return Status::invalidArgument(
            "workload needs a positive data-reference count, got ",
            dataRefs);
    }
    const double misses = lambdaM(line_bytes);
    if (misses > dataRefs) {
        return Status::invalidArgument(
            "Lambda_m = ", misses, " exceeds the data references ",
            dataRefs, "; the hit ratio would be negative");
    }
    if (misses + writeArounds > instructions) {
        return Status::invalidArgument(
            "more missing load/stores than instructions");
    }
    if (writeAroundTransfers > 0 &&
        writeAroundTransfers < writeArounds) {
        return Status::invalidArgument(
            "write-around transfers cannot be fewer than the "
            "write-around stores");
    }
    return Status();
}

double
Workload::lambdaM(double line_bytes) const
{
    UATM_ASSERT(line_bytes > 0, "line size must be positive");
    return bytesRead / line_bytes + writeArounds;
}

double
Workload::writeTransferCount() const
{
    return writeAroundTransfers > 0 ? writeAroundTransfers
                                    : writeArounds;
}

double
Workload::lambdaH(double line_bytes) const
{
    return dataRefs - lambdaM(line_bytes);
}

double
Workload::hitRatio(double line_bytes) const
{
    return lambdaH(line_bytes) / dataRefs;
}

double
Workload::missRatio(double line_bytes) const
{
    return lambdaM(line_bytes) / dataRefs;
}

double
Workload::hitToMissRatio(double line_bytes) const
{
    const double misses = lambdaM(line_bytes);
    UATM_ASSERT(misses > 0, "s is undefined with zero misses");
    return lambdaH(line_bytes) / misses;
}

double
Workload::busTrafficPerInstruction(double bus_width_bytes) const
{
    UATM_ASSERT(bus_width_bytes > 0, "bus width must be positive");
    UATM_ASSERT(instructions > 0, "needs instructions");
    const double bytes = bytesRead * (1.0 + flushRatio) +
                         writeTransferCount() * bus_width_bytes;
    return bytes / instructions;
}

Workload
Workload::fromHitRatio(double instructions, double data_refs,
                       double hit_ratio, double line_bytes,
                       double flush_ratio)
{
    UATM_ASSERT(hit_ratio >= 0.0 && hit_ratio <= 1.0,
                "hit ratio must be in [0, 1], got ", hit_ratio);
    Workload w;
    w.instructions = instructions;
    w.dataRefs = data_refs;
    w.flushRatio = flush_ratio;
    w.bytesRead = (1.0 - hit_ratio) * data_refs * line_bytes;
    w.writeArounds = 0.0;
    okOrThrow(w.validate(line_bytes));
    return w;
}

Workload
Workload::fromHitRatioWriteAround(double instructions,
                                  double data_refs, double hit_ratio,
                                  double line_bytes,
                                  double flush_ratio,
                                  double store_miss_frac)
{
    UATM_ASSERT(store_miss_frac >= 0.0 && store_miss_frac <= 1.0,
                "store-miss fraction must be in [0, 1]");
    Workload w;
    w.instructions = instructions;
    w.dataRefs = data_refs;
    w.flushRatio = flush_ratio;
    const double misses = (1.0 - hit_ratio) * data_refs;
    w.writeArounds = misses * store_miss_frac;
    w.bytesRead = (misses - w.writeArounds) * line_bytes;
    okOrThrow(w.validate(line_bytes));
    return w;
}

Workload
Workload::fromCacheRun(const CacheStats &stats,
                       std::uint32_t line_bytes,
                       std::uint32_t bus_width_bytes)
{
    Workload w;
    w.instructions = static_cast<double>(stats.instructions);
    w.dataRefs = static_cast<double>(stats.accesses);
    w.bytesRead = static_cast<double>(stats.bytesRead(line_bytes));
    w.writeArounds = static_cast<double>(stats.storesToMemory);
    w.writeAroundTransfers =
        bus_width_bytes != 0
            ? stats.writeTransfers(bus_width_bytes)
            : w.writeArounds;
    w.flushRatio = stats.flushRatio(line_bytes);
    okOrThrow(w.validate(line_bytes));
    return w;
}

std::string
Workload::describe(double line_bytes) const
{
    std::ostringstream os;
    os << "E=" << instructions << " R=" << bytesRead
       << " W=" << writeArounds << " alpha=" << flushRatio
       << " refs=" << dataRefs << " HR=" << hitRatio(line_bytes);
    return os.str();
}

} // namespace uatm
