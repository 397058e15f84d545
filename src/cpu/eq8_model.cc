/**
 * @file
 * Implementation of the Eq. 8 static stalling-factor estimate.
 */

#include "cpu/eq8_model.hh"

#include <algorithm>

#include "cache/cache.hh"
#include "util/logging.hh"
#include "util/status.hh"

namespace uatm {

Eq8Estimate
estimatePhiEq8(TraceSource &source, std::uint64_t max_refs,
               StallFeature feature, const CacheConfig &cache_config,
               std::uint32_t bus_width_bytes, Cycles mu_m)
{
    if (feature == StallFeature::FS || feature == StallFeature::NB) {
        throw StatusError(Status::invalidArgument(
            "Eq. 8 is derived for the BL/BNL features; got ",
            stallFeatureName(feature)));
    }
    UATM_ASSERT(mu_m > 0, "mu_m must be positive");
    UATM_ASSERT(cache_config.lineBytes >= bus_width_bytes,
                "line must be at least the bus width");

    source.reset();
    SetAssocCache cache(cache_config);

    const std::uint64_t chunks =
        cache_config.lineBytes / bus_width_bytes;
    const double window =
        static_cast<double>((chunks - 1) * mu_m);

    Eq8Estimate estimate;
    double stall_sum = 0.0;

    // The currently open miss window, if any.
    bool window_open = false;
    Addr window_line = 0;
    Addr window_addr = 0; // faulting address (first chunk)
    std::uint64_t window_start_instr = 0;

    std::uint64_t instr = 0;
    const auto visit = [&](const MemoryReference &ref) {
        instr += static_cast<std::uint64_t>(ref.gap) + 1;

        const AccessOutcome outcome = cache.access(ref);

        if (window_open) {
            const double delta_c = static_cast<double>(
                instr - window_start_instr);
            bool closes = false;
            double stall = 0.0;
            if (feature == StallFeature::BL) {
                // Bus-locked: ANY load/store in the window stalls
                // until the line is completely fetched.
                stall = std::max(window - delta_c, 0.0);
                closes = true;
            } else if (!outcome.hit && outcome.fill) {
                // A second miss: stalled until the previous line
                // is completely fetched (all BNL variants).
                stall = std::max(window - delta_c, 0.0);
                closes = true;
            } else if (outcome.hit &&
                       outcome.lineAddr == window_line) {
                // Chunk position in requested-first wraparound
                // order; it arrives position*mu_m after the CPU
                // resumed.
                const std::uint64_t first =
                    (window_addr - window_line) / bus_width_bytes;
                const std::uint64_t this_chunk =
                    (ref.addr - window_line) / bus_width_bytes;
                const std::uint64_t position =
                    (this_chunk + chunks - first) % chunks;
                const double arrival =
                    static_cast<double>(position * mu_m);
                switch (feature) {
                  case StallFeature::BNL1:
                    // Stalled until the whole line arrives.
                    stall = std::max(window - delta_c, 0.0);
                    break;
                  case StallFeature::BNL2:
                    // Arrived part proceeds; otherwise wait for
                    // the entire line.
                    stall = delta_c >= arrival
                                ? 0.0
                                : std::max(window - delta_c, 0.0);
                    break;
                  default: // BNL3
                    stall = std::max(arrival - delta_c, 0.0);
                    break;
                }
                closes = true;
            } else if (delta_c >= window) {
                // The fill has certainly completed; no stall.
                closes = true;
            }
            if (closes) {
                stall_sum += stall;
                estimate.stalledWindows += stall > 0.0;
                window_open = false;
            }
        }

        if (!outcome.hit && outcome.fill) {
            ++estimate.misses;
            window_open = true;
            window_line = outcome.lineAddr;
            window_addr = alignDown(ref.addr, bus_width_bytes);
            window_start_instr = instr;
        }
    };
    BatchPump(source).pumpTo(
        max_refs, [&](const MemoryReference *refs, std::size_t count) {
            for (std::size_t i = 0; i < count; ++i)
                visit(refs[i]);
        });

    if (estimate.misses == 0)
        return estimate;
    // Eq. 8: the mean window stall in units of mu_m, plus one for
    // the basic read-miss wait.
    estimate.phi = stall_sum / (static_cast<double>(
                                    estimate.misses) *
                                static_cast<double>(mu_m)) +
                   1.0;
    return estimate;
}

} // namespace uatm
