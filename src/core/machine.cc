/**
 * @file
 * Implementation of the analytic machine description.
 */

#include "core/machine.hh"

#include <sstream>

#include "util/logging.hh"

namespace uatm {

Status
Machine::validate() const
{
    // Each check is written so that a NaN fails it.
    if (!(busWidth > 0)) {
        return Status::invalidArgument(
            "bus width D must be positive, got ", busWidth);
    }
    if (!(lineBytes >= busWidth)) {
        return Status::invalidArgument(
            "line size L = ", lineBytes,
            " must be at least the bus width D = ", busWidth);
    }
    if (!(cycleTime > 0)) {
        return Status::invalidArgument(
            "memory cycle time mu_m must be positive, got ",
            cycleTime);
    }
    if (pipelined) {
        if (!(pipelineInterval > 0)) {
            return Status::invalidArgument(
                "pipeline interval q must be positive, got ",
                pipelineInterval);
        }
        if (pipelineInterval > cycleTime) {
            return Status::invalidArgument(
                "pipeline interval q = ", pipelineInterval,
                " exceeds mu_m = ", cycleTime);
        }
    }
    if (!(issueWidth >= 1.0)) {
        return Status::invalidArgument(
            "issue width must be at least one, got ", issueWidth);
    }
    return Status();
}

double
Machine::lineTransferTime() const
{
    const double chunks = lineOverBus();
    if (!pipelined)
        return chunks * cycleTime;
    return cycleTime + pipelineInterval * (chunks - 1.0);
}

Machine
Machine::withDoubledBus() const
{
    Machine m = *this;
    m.busWidth *= 2.0;
    if (m.lineBytes < m.busWidth) {
        throw StatusError(Status::invalidArgument(
            "doubling the bus to D = ", m.busWidth,
            " would exceed the line size L = ", m.lineBytes));
    }
    return m;
}

Machine
Machine::withPipelining(double q) const
{
    Machine m = *this;
    m.pipelined = true;
    m.pipelineInterval = q;
    okOrThrow(m.validate());
    return m;
}

Machine
Machine::withCycleTime(double mu_m) const
{
    Machine m = *this;
    m.cycleTime = mu_m;
    okOrThrow(m.validate());
    return m;
}

std::string
Machine::describe() const
{
    std::ostringstream os;
    os << "D=" << busWidth << "B L=" << lineBytes << "B mu_m="
       << cycleTime;
    if (pipelined)
        os << " pipelined q=" << pipelineInterval;
    if (issueWidth != 1.0)
        os << " k=" << issueWidth;
    return os.str();
}

} // namespace uatm
