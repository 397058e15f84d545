#include "inputs.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "cpu/stall_feature.hh"
#include "trace/generators.hh"
#include "trace/io.hh"

namespace perfbench {

using namespace uatm;

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t stream,
           std::uint64_t index)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1) +
                      0xbf58476d1ce4e5b9ull * (index + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
SeededRng::next()
{
    state_ += 0x9e3779b97f4a7c15ull;
    return deriveSeed(state_, 0, 0);
}

double
SeededRng::uniform()
{
    return double(next() >> 11) * 0x1.0p-53;
}

std::size_t
SeededRng::below(std::size_t n)
{
    return std::min(n - 1, std::size_t(uniform() * double(n)));
}

Trace
fillTrace(TraceSource &source, std::size_t n)
{
    std::vector<MemoryReference> refs(n);
    std::size_t filled = 0;
    while (filled < n) {
        const std::size_t got =
            source.fillBatch(refs.data() + filled, n - filled);
        if (got == 0)
            break;
        filled += got;
    }
    refs.resize(filled);
    return Trace(std::move(refs));
}

namespace {

// Streams of deriveSeed, one per kind of input.
enum Stream : std::uint64_t
{
    kSweepWorkloads = 1,
    kSweepOrder,
    kReplayTraces,
    kColdSeeds,
    kWarmDraws,
};

/** Workload seeds the library takes as 31-bit JSON integers. */
std::uint64_t
workloadSeed(std::uint64_t seed, std::uint64_t stream,
             std::uint64_t index)
{
    return 1 + (deriveSeed(seed, stream, index) >> 34);
}

/** One workload spec per generator family. */
const std::vector<std::string> &
sweepFamilies()
{
    static const std::vector<std::string> families = [] {
        std::vector<std::string> all;
        for (const std::string &profile : Spec92Profile::names())
            all.push_back("spec92:profile=" + profile);
        all.push_back("ycsb-a");
        all.push_back("reuse-dist");
        return all;
    }();
    return families;
}

const std::vector<std::uint32_t> &
sweepAssocs()
{
    static const std::vector<std::uint32_t> assocs = {1, 2, 4};
    return assocs;
}

const std::vector<std::string> &
replayProfiles()
{
    static const std::vector<std::string> profiles = {
        "nasa7", "doduc", "hydro2d"};
    return profiles;
}

} // namespace

const std::vector<std::uint64_t> &
sweepSizes()
{
    static const std::vector<std::uint64_t> sizes = {
        4096, 8192, 16384, 32768, 65536, 131072, 262144, 524288};
    return sizes;
}

Expected<std::vector<exp::GeometrySweep>>
resolveSweepCatalog(std::uint64_t seed)
{
    std::vector<exp::GeometrySweep> catalog;
    const auto &families = sweepFamilies();
    for (std::size_t f = 0; f < families.size(); ++f) {
        auto spec = exp::WorkloadSpec::parse(
            families[f], workloadSeed(seed, kSweepWorkloads, f));
        if (!spec.ok())
            return spec.status();
        auto source = spec.value().make();
        if (!source.ok())
            return source.status();
        for (std::uint32_t assoc : sweepAssocs()) {
            exp::GeometrySweep sweep;
            sweep.axis = exp::GeometrySweep::Axis::Size;
            sweep.base.assoc = assoc;
            sweep.base.lineBytes = 32;
            sweep.workload = spec.value();
            sweep.values = sweepSizes();
            sweep.refs = kSweepRefs;
            sweep.warmupRefs = kSweepWarmup;
            sweep.engine = exp::GeometrySweep::Engine::Auto;
            catalog.push_back(std::move(sweep));
        }
    }
    return catalog;
}

std::vector<std::size_t>
sweepOrder(std::uint64_t seed, std::size_t catalog_size)
{
    std::vector<std::size_t> order(catalog_size);
    std::iota(order.begin(), order.end(), 0);
    SeededRng rng(deriveSeed(seed, kSweepOrder, 0));
    for (std::size_t i = catalog_size; i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    return order;
}

Expected<std::vector<std::string>>
captureReplayTraces(std::uint64_t seed, const std::string &dir)
{
    std::vector<std::string> paths;
    const auto &profiles = replayProfiles();
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        const auto source = Spec92Profile::make(
            profiles[i], workloadSeed(seed, kReplayTraces, i));
        const Trace trace(source->drain(kReplayRefs));
        const std::string path = dir + "/" + profiles[i] + ".trc";
        if (Status s = BinaryTraceFormat::writeFile(trace, path);
            !s.ok())
            return s;
        paths.push_back(path);
    }
    return paths;
}

exp::Scenario
replayGrid(const std::string &trace_path)
{
    exp::Scenario scenario(
        "design_space",
        "cache size x bus width x stall feature x write buffer");
    exp::ParamMap params;
    params.setString("path", trace_path);
    scenario.workload = exp::WorkloadSpec::of("trace", params);
    scenario.refs = kReplayRefs;
    scenario.cache.assoc = 2;
    scenario.cache.lineBytes = 32;
    scenario.memory.cycleTime = 8;
    scenario.memory.pipelineInterval = 2;
    scenario.writeBuffer.readBypass = true;
    scenario.sweepLabeled(
        "cache", {{"8K", 8192}, {"32K", 32768}, {"128K", 131072}},
        [](exp::Point &point, const exp::AxisValue &v) {
            point.cache.sizeBytes = std::uint64_t(v.value);
        });
    scenario.sweepLabeled(
        "bus", {{"32-bit", 4}, {"64-bit", 8}},
        [](exp::Point &point, const exp::AxisValue &v) {
            point.memory.busWidthBytes = std::uint32_t(v.value);
        });
    scenario.sweepLabeled(
        "feature",
        {{stallFeatureName(StallFeature::FS),
          double(StallFeature::FS)},
         {stallFeatureName(StallFeature::BNL3),
          double(StallFeature::BNL3)}},
        [](exp::Point &point, const exp::AxisValue &v) {
            point.cpu.feature = StallFeature(int(v.value));
        });
    scenario.sweepLabeled(
        "wbuf", {{"-", 0}, {"8", 8}},
        [](exp::Point &point, const exp::AxisValue &v) {
            point.writeBuffer.depth = std::uint32_t(v.value);
        });
    return scenario;
}

std::string
coldBody(std::uint64_t seed, std::size_t index)
{
    // Consecutive seeds from a per-run base: distinct by
    // construction within the run.
    const std::uint64_t workload_seed =
        workloadSeed(seed, kColdSeeds, 0) + index;
    char body[512];
    std::snprintf(
        body, sizeof(body),
        "{\"name\": \"perfbench_served\", \"kernel\": \"cache\", "
        "\"refs\": %llu, \"warmup\": %llu, "
        "\"workload\": {\"method\": \"spec92\", "
        "\"params\": {\"profile\": \"nasa7\"}, \"seed\": %llu}, "
        "\"cache\": {\"assoc\": 2, \"line\": 32}, "
        "\"axes\": [{\"axis\": \"cache.size\", \"values\": "
        "[4096, 8192, 16384, 32768, 65536, 131072, 262144, "
        "524288]}]}",
        static_cast<unsigned long long>(kServedRefs),
        static_cast<unsigned long long>(kServedWarmup),
        static_cast<unsigned long long>(workload_seed));
    return body;
}

std::vector<double>
poissonSchedule(std::uint64_t seed, std::uint64_t stream, double rate,
                double seconds)
{
    // Stratified sampling: gap i comes from the i-th of n equally
    // likely slices of the exponential distribution, and the seed
    // draws both the point within each slice and the order of the
    // gaps.  Every gap is still exponential, but a run no longer
    // draws a burstier or calmer gap mix than another, which would
    // move the queueing tail from seed to seed.
    const auto n = std::size_t(std::llround(rate * seconds));
    SeededRng rng(deriveSeed(seed, 100 + stream, 0));
    std::vector<double> gaps(n);
    for (std::size_t i = 0; i < n; ++i)
        gaps[i] = -std::log1p(-(double(i) + rng.uniform()) /
                              double(n)) /
                  rate;
    for (std::size_t i = n; i > 1; --i)
        std::swap(gaps[i - 1], gaps[rng.below(i)]);
    std::vector<double> due(n);
    double t = 0;
    for (std::size_t i = 0; i < n; ++i)
        due[i] = t += gaps[i];
    return due;
}

std::vector<std::size_t>
warmDraws(std::uint64_t seed, std::size_t count,
          std::size_t cold_count)
{
    std::vector<std::size_t> draws(count);
    SeededRng rng(deriveSeed(seed, kWarmDraws, 0));
    for (std::size_t &draw : draws)
        draw = rng.below(cold_count);
    return draws;
}

} // namespace perfbench
