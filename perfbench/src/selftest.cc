/**
 * @file
 * perfbench_selftest: checks the benchmark's own helpers before a
 * run trusts them.  Exit status 0 when every check holds.
 *
 *   perfbench_selftest <work-dir>
 */

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "inputs.hh"
#include "spans.hh"
#include "stats.hh"
#include "workloads.hh"

namespace {

using namespace perfbench;

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "selftest FAILED: %s\n", what);
        ++failures;
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b));
}

bool
same(const std::array<double, 3> &q, double a, double b, double c)
{
    return near(q[0], a) && near(q[1], b) && near(q[2], c);
}

void
testOrderStatistics()
{
    // Expected values are statistics.median / quantiles(n=4).
    check(near(median({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5),
          "median of 1..10");
    check(near(median({5, 1, 4, 2, 3, 9, 7}), 4), "median, odd");
    check(same(quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 2.75, 5.5,
               8.25),
          "quartiles of 1..10");
    check(same(quartiles({3.5, 1.0, 2.0}), 1.0, 2.0, 3.5),
          "quartiles of three");
    check(same(quartiles({10, 20}), 7.5, 15.0, 22.5),
          "quartiles of two");
    check(same(quartiles({5, 1, 4, 2, 3, 9, 7}), 2.0, 4.0, 7.0),
          "quartiles of seven");
    check(near(meanOfMedians({{1, 2, 9}, {10, 40, 20, 30}}), 13.5),
          "mean of per-kind medians");
    check(std::isnan(meanOfMedians({{1, 2}, {}})),
          "no mean of medians with an empty kind");
    check(same(quartiles({0.7, 0.69, 0.71, 0.68, 0.73, 0.70, 0.72,
                          0.66, 0.75, 0.69}),
               0.6875, 0.7, 0.7225),
          "quartiles of ten latencies");
}

void
testPercentiles()
{
    std::vector<double> values;
    for (int i = 1; i <= 1000; ++i)
        values.push_back(double(i));
    check(percentile(values, 0.99) == 990.0, "p99 of 1..1000");
    check(samplesBeyond(1000, 0.99) == 10, "10 beyond p99 of 1000");
    values.pop_back();
    check(!percentile(values, 0.99).has_value(),
          "p99 refused with 9 samples beyond");
    check(!percentile(std::vector<double>(99, 1.0), 0.90),
          "p90 refused with 99 samples");
    check(percentile(std::vector<double>(100, 1.0), 0.90) == 1.0,
          "p90 reported with 100 samples");
    check(!percentile(std::vector<double>(19, 1.0), 0.50),
          "p50 refused with 19 samples");
    check(!percentile({}, 0.50), "p50 refused on no samples");
}

Span
span(const char *name, std::int64_t id, std::int64_t parent,
     std::int64_t start, std::int64_t end)
{
    Span s;
    s.name = name;
    s.id = id;
    s.parent = parent;
    s.startNs = start;
    s.endNs = end;
    return s;
}

void
testSelfTime()
{
    // One thread: op [0,100) with children [10,40) and [50,90);
    // the second child has a grandchild [60,70).
    const std::vector<Span> serial = {
        span("op", 0, -1, 0, 100), span("a", 1, 0, 10, 40),
        span("b", 2, 0, 50, 90), span("c", 3, 2, 60, 70)};
    const std::vector<double> s = wallSelfNs(serial);
    check(near(s[0], 30) && near(s[1], 30) && near(s[2], 30) &&
              near(s[3], 10),
          "self time on a one-thread tree");

    // Two workers under a dispatch span: [10,50) and [30,70) overlap
    // on [30,50), which they split.
    const std::vector<Span> parallel = {
        span("op", 0, -1, 0, 100), span("dispatch", 1, 0, 0, 80),
        span("w1", 2, 1, 10, 50), span("w2", 3, 1, 30, 70)};
    const std::vector<double> p = wallSelfNs(parallel);
    check(near(p[0], 20) && near(p[1], 20) && near(p[2], 30) &&
              near(p[3], 30),
          "self time with overlapping workers");
    check(near(p[0] + p[1] + p[2] + p[3], 100),
          "self times add up to the root");

    SpanRecorder recorder;
    for (Span s : parallel)
        recorder.add(s);
    Span outside = span("serve.parse", 9, -1, 100, 110);
    recorder.add(outside);
    Ledger ledger = ledgerOf(recorder);
    ledger.opNs = 100;
    check(near(ledger.rootNs, 100) && near(ledger.layerNs, 80),
          "ledger sums the layers under the root only");
    check(near(ledger.residual(), 0.2), "ledger residual");
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
testSeededInputs(const std::string &dir)
{
    check(poissonSchedule(7, 0, 10, 5) == poissonSchedule(7, 0, 10, 5),
          "same seed, same schedule");
    check(poissonSchedule(7, 0, 10, 5) != poissonSchedule(8, 0, 10, 5),
          "other seed, other schedule");
    check(poissonSchedule(7, 0, 10, 5) != poissonSchedule(7, 1, 10, 5),
          "phases draw separate schedules");
    check(coldBody(7, 3) == coldBody(7, 3), "same seed, same body");
    check(coldBody(7, 3) != coldBody(8, 3), "other seed, other body");
    check(coldBody(7, 3) != coldBody(7, 4), "bodies differ by index");
    check(warmDraws(7, 50, 20) == warmDraws(7, 50, 20) &&
              warmDraws(7, 50, 20) != warmDraws(8, 50, 20),
          "warm draws follow the seed");
    check(sweepOrder(7, 24) == sweepOrder(7, 24) &&
              sweepOrder(7, 24) != sweepOrder(8, 24),
          "sweep order follows the seed");

    const auto trace_bytes = [&](std::uint64_t seed,
                                 const char *sub) {
        const std::string where = dir + "/" + sub;
        std::filesystem::create_directories(where);
        std::string all;
        for (const std::string &path :
             uatm::okOrThrow(captureReplayTraces(seed, where)))
            all += slurp(path);
        return all;
    };
    const std::string first = trace_bytes(7, "a");
    check(!first.empty() && first == trace_bytes(7, "b"),
          "same seed, identical trace files");
    check(first != trace_bytes(8, "c"),
          "other seed, other trace files");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::fprintf(stderr, "usage: perfbench_selftest <dir>\n");
        return 2;
    }
    testOrderStatistics();
    testPercentiles();
    testSelfTime();
    testSeededInputs(argv[1]);
    std::filesystem::remove_all(argv[1]);
    if (failures)
        return 1;
    std::printf("selftest: all checks hold\n");
    return 0;
}
