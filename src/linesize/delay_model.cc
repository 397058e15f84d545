/**
 * @file
 * Implementation of the line-fill delay model.
 */

#include "linesize/delay_model.hh"

#include <cmath>
#include <sstream>

#include "util/logging.hh"

namespace uatm {

Status
LineDelayModel::validate() const
{
    // Each check is written so that a NaN fails it.
    if (!(busWidth > 0.0)) {
        return Status::invalidArgument(
            "bus width must be positive, got ", busWidth);
    }
    if (!(c >= 1.0 && std::isfinite(c))) {
        return Status::invalidArgument(
            "latency c must be at least the one-cycle hit time "
            "and finite, got ", c);
    }
    if (!(beta > 0.0 && std::isfinite(beta))) {
        return Status::invalidArgument(
            "bus speed beta must be positive and finite, got ", beta);
    }
    return Status();
}

double
LineDelayModel::fillTime(double line_bytes) const
{
    UATM_ASSERT(line_bytes >= busWidth,
                "line must be at least one bus transfer");
    return c + beta * line_bytes / busWidth;
}

double
LineDelayModel::meanMemoryDelay(double miss_ratio,
                                double line_bytes) const
{
    UATM_ASSERT(miss_ratio >= 0.0 && miss_ratio <= 1.0,
                "miss ratio must be in [0, 1]");
    // Eq. 15: (1 - HR)(c + beta L/D) + HR * 1.
    return miss_ratio * fillTime(line_bytes) + (1.0 - miss_ratio);
}

double
LineDelayModel::smithObjective(double miss_ratio,
                               double line_bytes) const
{
    UATM_ASSERT(miss_ratio >= 0.0 && miss_ratio <= 1.0,
                "miss ratio must be in [0, 1]");
    // Eq. 16 with c' = c - 1.
    return miss_ratio * (smithLatency() + beta * line_bytes /
                                              busWidth);
}

LineDelayModel
LineDelayModel::fromNanoseconds(double latency_ns, double ns_per_byte,
                                double cpu_cycle_ns,
                                double bus_width_bytes)
{
    if (!(cpu_cycle_ns > 0.0)) {
        throw StatusError(Status::invalidArgument(
            "CPU cycle time must be positive, got ", cpu_cycle_ns));
    }
    if (std::isinf(cpu_cycle_ns)) {
        throw StatusError(Status::invalidArgument(
            "CPU cycle time must be finite, got ", cpu_cycle_ns));
    }
    LineDelayModel m;
    // Latency is normalised and carries the one-cycle hit on top.
    m.c = latency_ns / cpu_cycle_ns + 1.0;
    m.beta = ns_per_byte * bus_width_bytes / cpu_cycle_ns;
    m.busWidth = bus_width_bytes;
    // A tiny cycle time overflows the cycle counts, and a huge one
    // rounds a positive delay to no cycles at all: name the inputs,
    // not a c or beta nobody typed.
    if (m.busWidth > 0.0 && !(std::isfinite(m.c) && std::isfinite(m.beta))) {
        throw StatusError(Status::invalidArgument(
            "the delay ", latency_ns, " ns + ", ns_per_byte,
            " ns/byte (D = ", bus_width_bytes,
            " bytes) is not a finite number of ", cpu_cycle_ns,
            " ns CPU cycles"));
    }
    if ((latency_ns > 0.0 && m.c == 1.0) ||
        (ns_per_byte > 0.0 && m.busWidth > 0.0 && m.beta == 0.0)) {
        throw StatusError(Status::invalidArgument(
            "the delay ", latency_ns, " ns + ", ns_per_byte,
            " ns/byte (D = ", bus_width_bytes,
            " bytes) rounds to 0 CPU cycles of ", cpu_cycle_ns,
            " ns"));
    }
    okOrThrow(m.validate());
    return m;
}

std::string
LineDelayModel::describe() const
{
    std::ostringstream os;
    os << "c'=" << smithLatency() << " beta=" << beta << " D="
       << busWidth << "B";
    return os.str();
}

} // namespace uatm
