/**
 * @file
 * Implementation of the runner scaling diagnosis.
 */

#include "exp/report.hh"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <map>
#include <sstream>

namespace uatm::exp {

RunDiagnosis
diagnoseRun(const RunnerTelemetry &telemetry, std::size_t topK)
{
    RunDiagnosis d;
    d.threadsUsed = telemetry.threadsUsed;
    d.pointCount = telemetry.pointCount;
    d.wallNs = telemetry.wallNs;
    d.loadImbalance = telemetry.loadImbalance();
    d.parallelEfficiency = telemetry.parallelEfficiency();

    d.workerUtilization.reserve(telemetry.workers.size());
    d.workerCounters.reserve(telemetry.workers.size());
    for (const auto &worker : telemetry.workers) {
        d.workerUtilization.push_back(worker.utilization());
        d.workerCounters.push_back(worker.counters);
        d.countersAvailable |= worker.counters.available;
    }

    d.slowestPoints = telemetry.points;
    std::stable_sort(d.slowestPoints.begin(),
                     d.slowestPoints.end(),
                     [](const PointTiming &a,
                        const PointTiming &b) {
                         return a.durationNs > b.durationNs;
                     });
    if (d.slowestPoints.size() > topK)
        d.slowestPoints.resize(topK);
    return d;
}

double
AmdahlFit::speedupAt(double n) const
{
    if (!ok || n <= 0.0)
        return 0.0;
    const double denom =
        serialFraction + (1.0 - serialFraction) / n;
    return denom > 0.0 ? 1.0 / denom : 0.0;
}

AmdahlFit
fitAmdahl(
    const std::vector<std::pair<unsigned, double>> &samples)
{
    // Average duplicate thread counts so a rerun at the same n
    // does not get double weight in the regression.
    std::map<unsigned, std::pair<double, int>> byThreads;
    for (const auto &[threads, wallNs] : samples) {
        if (!(wallNs > 0.0))
            continue;
        const unsigned n = threads == 0 ? 1 : threads;
        auto &[sum, count] = byThreads[n];
        sum += wallNs;
        ++count;
    }

    AmdahlFit fit;
    if (byThreads.size() < 2)
        return fit;

    // T(n) = a + b * (1/n): ordinary least squares on x = 1/n.
    double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
    const double m = static_cast<double>(byThreads.size());
    for (const auto &[n, acc] : byThreads) {
        const double x = 1.0 / static_cast<double>(n);
        const double y = acc.first / acc.second;
        sx += x;
        sy += y;
        sxx += x * x;
        sxy += x * y;
    }
    const double denom = m * sxx - sx * sx;
    if (std::abs(denom) < 1e-12)
        return fit;
    const double b = (m * sxy - sx * sy) / denom;
    const double a = (sy - b * sx) / m;

    const double t1 = a + b;
    if (!(t1 > 0.0))
        return fit;
    fit.ok = true;
    fit.t1Ns = t1;
    fit.serialFraction = std::clamp(a / t1, 0.0, 1.0);
    return fit;
}

namespace {

std::string
formatNs(double ns)
{
    std::ostringstream out;
    out << std::fixed;
    if (ns >= 1e9)
        out << std::setprecision(3) << ns / 1e9 << " s";
    else if (ns >= 1e6)
        out << std::setprecision(3) << ns / 1e6 << " ms";
    else if (ns >= 1e3)
        out << std::setprecision(3) << ns / 1e3 << " us";
    else
        out << std::setprecision(0) << ns << " ns";
    return out.str();
}

std::string
percent(double fraction)
{
    std::ostringstream out;
    out << std::fixed << std::setprecision(1)
        << fraction * 100.0 << "%";
    return out.str();
}

} // namespace

std::string
formatDiagnosis(const RunDiagnosis &diagnosis)
{
    std::ostringstream out;
    const unsigned lanes =
        diagnosis.threadsUsed == 0 ? 1 : diagnosis.threadsUsed;
    out << "run: " << diagnosis.pointCount << " points on "
        << lanes
        << (diagnosis.threadsUsed == 0
                ? " thread (inline)"
                : (lanes == 1 ? " worker" : " workers"))
        << ", wall "
        << formatNs(static_cast<double>(diagnosis.wallNs)) << "\n";
    out << "  parallel efficiency "
        << percent(diagnosis.parallelEfficiency)
        << ", load imbalance " << std::fixed
        << std::setprecision(2) << diagnosis.loadImbalance
        << "x (1.00x = balanced)\n";

    for (std::size_t i = 0;
         i < diagnosis.workerUtilization.size(); ++i) {
        const double u = diagnosis.workerUtilization[i];
        const int cells = static_cast<int>(u * 40.0 + 0.5);
        out << "  worker " << std::setw(2) << i << "  ["
            << std::string(static_cast<std::size_t>(
                               std::clamp(cells, 0, 40)),
                           '#')
            << std::string(static_cast<std::size_t>(
                               40 - std::clamp(cells, 0, 40)),
                           '.')
            << "] " << percent(u) << " busy\n";
    }

    if (diagnosis.countersAvailable) {
        using obs::PerfEvent;
        out << "  hardware counters "
               "(multiplexing-corrected):\n";
        for (std::size_t i = 0;
             i < diagnosis.workerCounters.size(); ++i) {
            const obs::PerfCounterValues &c =
                diagnosis.workerCounters[i];
            out << "    worker " << std::setw(2) << i;
            if (!c.available) {
                out << "  (unavailable)\n";
                continue;
            }
            if (c.has(PerfEvent::Instructions) &&
                c.has(PerfEvent::Cycles)) {
                const double ipc = c.ipc();
                // 2.0 IPC spans the 20-cell bar: commodity cores
                // rarely sustain more on this kind of code.
                const int cells = std::clamp(
                    static_cast<int>(ipc * 10.0 + 0.5), 0, 20);
                out << "  ipc " << std::fixed
                    << std::setprecision(2) << ipc << " ["
                    << std::string(
                           static_cast<std::size_t>(cells), '#')
                    << std::string(
                           static_cast<std::size_t>(20 - cells),
                           '.')
                    << "]";
            }
            if (c.has(PerfEvent::CacheMisses) &&
                c.has(PerfEvent::CacheReferences)) {
                out << "  miss " << percent(c.cacheMissRate());
            }
            if (c.has(PerfEvent::CacheMisses) &&
                c.has(PerfEvent::Instructions)) {
                out << "  mpki " << std::fixed
                    << std::setprecision(2)
                    << c.missesPerKiloInstruction();
            }
            if (c.has(PerfEvent::CpuMigrations)) {
                out << "  migr " << std::setprecision(0)
                    << c.get(PerfEvent::CpuMigrations);
            }
            if (c.has(PerfEvent::ContextSwitches)) {
                out << "  ctx " << std::setprecision(0)
                    << c.get(PerfEvent::ContextSwitches);
            }
            if (c.multiplexScale() > 1.01) {
                out << "  (x" << std::setprecision(2)
                    << c.multiplexScale() << " multiplexed)";
            }
            out << "\n";
        }
    }

    if (!diagnosis.slowestPoints.empty()) {
        out << "  slowest points:\n";
        for (const auto &point : diagnosis.slowestPoints) {
            out << "    #" << point.index << "  "
                << formatNs(
                       static_cast<double>(point.durationNs))
                << "  (worker " << point.worker << ")";
            if (!point.label.empty())
                out << "  " << point.label;
            out << "\n";
        }
    }
    return out.str();
}

CounterScaling
analyzeCounterScaling(const std::vector<RunnerTelemetry> &runs)
{
    using obs::PerfEvent;
    CounterScaling scaling;

    // Aggregate each run's worker counters, then average runs at
    // the same thread count so reruns do not skew the trend.
    std::map<unsigned, std::vector<CounterScalingPoint>>
        byThreads;
    for (const RunnerTelemetry &run : runs) {
        double instructions = 0.0, cycles = 0.0;
        double misses = 0.0, migrations = 0.0, ctx = 0.0;
        bool hasInstr = false, hasCycles = false;
        bool hasMisses = false, hasMigr = false, hasCtx = false;
        for (const WorkerTelemetry &worker : run.workers) {
            const obs::PerfCounterValues &c = worker.counters;
            if (!c.available)
                continue;
            if (c.has(PerfEvent::Instructions)) {
                instructions += c.get(PerfEvent::Instructions);
                hasInstr = true;
            }
            if (c.has(PerfEvent::Cycles)) {
                cycles += c.get(PerfEvent::Cycles);
                hasCycles = true;
            }
            if (c.has(PerfEvent::CacheMisses)) {
                misses += c.get(PerfEvent::CacheMisses);
                hasMisses = true;
            }
            if (c.has(PerfEvent::CpuMigrations)) {
                migrations += c.get(PerfEvent::CpuMigrations);
                hasMigr = true;
            }
            if (c.has(PerfEvent::ContextSwitches)) {
                ctx += c.get(PerfEvent::ContextSwitches);
                hasCtx = true;
            }
        }
        if (!(hasInstr || hasCycles || hasMisses || hasMigr ||
              hasCtx))
            continue;
        CounterScalingPoint point;
        point.threads =
            run.threadsUsed == 0 ? 1 : run.threadsUsed;
        if (hasInstr && hasCycles && cycles > 0.0) {
            point.ipc = instructions / cycles;
            point.hasIpc = true;
        }
        if (hasMisses && hasInstr && instructions > 0.0) {
            point.mpki = misses * 1000.0 / instructions;
            point.hasMpki = true;
        }
        if (hasMigr && !run.workers.empty()) {
            point.migrationsPerWorker =
                migrations /
                static_cast<double>(run.workers.size());
            point.hasMigrations = true;
        }
        if (hasCtx && run.wallNs > 0) {
            point.ctxSwitchesPerSecond =
                ctx * 1e9 / static_cast<double>(run.wallNs);
            point.hasCtxSwitches = true;
        }
        byThreads[point.threads].push_back(point);
    }

    for (const auto &[threads, group] : byThreads) {
        CounterScalingPoint avg;
        avg.threads = threads;
        int nIpc = 0, nMpki = 0, nMigr = 0, nCtx = 0;
        for (const CounterScalingPoint &p : group) {
            if (p.hasIpc) {
                avg.ipc += p.ipc;
                ++nIpc;
            }
            if (p.hasMpki) {
                avg.mpki += p.mpki;
                ++nMpki;
            }
            if (p.hasMigrations) {
                avg.migrationsPerWorker +=
                    p.migrationsPerWorker;
                ++nMigr;
            }
            if (p.hasCtxSwitches) {
                avg.ctxSwitchesPerSecond +=
                    p.ctxSwitchesPerSecond;
                ++nCtx;
            }
        }
        if (nIpc) {
            avg.ipc /= nIpc;
            avg.hasIpc = true;
        }
        if (nMpki) {
            avg.mpki /= nMpki;
            avg.hasMpki = true;
        }
        if (nMigr) {
            avg.migrationsPerWorker /= nMigr;
            avg.hasMigrations = true;
        }
        if (nCtx) {
            avg.ctxSwitchesPerSecond /= nCtx;
            avg.hasCtxSwitches = true;
        }
        scaling.points.push_back(avg);
    }
    if (scaling.points.empty()) {
        scaling.verdict =
            "no hardware counters recorded (UATM_PERF unset, "
            "perf unavailable, or pre-v2 telemetry)";
        return scaling;
    }
    scaling.ok = true;

    const CounterScalingPoint &lo = scaling.points.front();
    const CounterScalingPoint &hi = scaling.points.back();
    if (scaling.points.size() >= 2 && lo.hasIpc && hi.hasIpc &&
        lo.hasMpki && hi.hasMpki && lo.mpki > 0.0 &&
        lo.ipc > 0.0) {
        scaling.falseSharingSuspected =
            hi.mpki > 1.3 * lo.mpki && hi.ipc < 0.85 * lo.ipc;
    }
    scaling.migrationHeavy =
        hi.hasMigrations && hi.migrationsPerWorker > 10.0;
    scaling.contextSwitchHeavy =
        hi.hasCtxSwitches && hi.ctxSwitchesPerSecond > 500.0;

    std::ostringstream verdict;
    if (scaling.falseSharingSuspected) {
        verdict << "false sharing suspected: misses/kilo-instr "
                   "rose while IPC fell as threads grew";
    }
    if (scaling.migrationHeavy) {
        if (verdict.tellp() > 0)
            verdict << "; ";
        verdict << "workers migrate between cpus frequently "
                   "(consider pinning)";
    }
    if (scaling.contextSwitchHeavy) {
        if (verdict.tellp() > 0)
            verdict << "; ";
        verdict << "heavy context switching (oversubscribed "
                   "host?)";
    }
    if (verdict.tellp() == 0) {
        verdict << (scaling.points.size() >= 2 &&
                            lo.hasIpc && hi.hasIpc
                        ? "no contention signature in the "
                          "counters"
                        : "counters present but too sparse for "
                          "the contention heuristics");
    }
    scaling.verdict = verdict.str();
    return scaling;
}

std::string
formatCounterScaling(const CounterScaling &scaling)
{
    std::ostringstream out;
    if (!scaling.ok) {
        out << "counter scaling: " << scaling.verdict << "\n";
        return out.str();
    }
    out << "counter scaling (aggregate per thread count):\n";
    for (const CounterScalingPoint &p : scaling.points) {
        out << "  n=" << p.threads << ":";
        out << std::fixed;
        if (p.hasIpc)
            out << "  ipc " << std::setprecision(2) << p.ipc;
        if (p.hasMpki)
            out << "  mpki " << std::setprecision(2) << p.mpki;
        if (p.hasMigrations)
            out << "  migr/worker " << std::setprecision(1)
                << p.migrationsPerWorker;
        if (p.hasCtxSwitches)
            out << "  ctx/s " << std::setprecision(0)
                << p.ctxSwitchesPerSecond;
        out << "\n";
    }
    out << "  " << scaling.verdict << "\n";
    return out.str();
}

std::string
formatAmdahlFit(
    const AmdahlFit &fit,
    const std::vector<std::pair<unsigned, double>> &samples)
{
    std::ostringstream out;
    if (!fit.ok) {
        out << "amdahl fit: unavailable (need wall times from "
               ">= 2 distinct thread counts)\n";
        return out.str();
    }
    out << "amdahl fit: serial fraction "
        << percent(fit.serialFraction) << ", T1 "
        << formatNs(fit.t1Ns) << "\n";
    std::map<unsigned, bool> seen;
    for (const auto &[threads, wallNs] : samples) {
        const unsigned n = threads == 0 ? 1 : threads;
        if (seen[n])
            continue;
        seen[n] = true;
        out << "  n=" << n << ": predicted speedup "
            << std::fixed << std::setprecision(2)
            << fit.speedupAt(static_cast<double>(n)) << "x\n";
    }
    const double limit = fit.serialFraction > 0.0
                             ? 1.0 / fit.serialFraction
                             : 0.0;
    if (limit > 0.0)
        out << "  asymptotic speedup limit " << std::fixed
            << std::setprecision(2) << limit << "x\n";
    else
        out << "  asymptotic speedup limit: unbounded "
               "(no measurable serial fraction)\n";
    return out.str();
}

} // namespace uatm::exp
