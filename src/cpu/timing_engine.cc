/**
 * @file
 * Implementation of the trace-driven timing engine.
 */

#include "cpu/timing_engine.hh"

#include <algorithm>
#include <sstream>

#include "obs/profile.hh"
#include "obs/registry.hh"
#include "obs/trace_event.hh"
#include "util/logging.hh"

namespace uatm {

// Drift guard: every numeric field of TimingStats must appear in
// registerStats() and the test drift guard.  If this fires you
// added/removed a field — update both (and the JSON schema note in
// docs/OBSERVABILITY.md), then adjust the count.
static_assert(sizeof(TimingStats) == 15 * sizeof(std::uint64_t),
              "TimingStats changed: update registerStats() and "
              "tests/test_obs.cc");

const char *
prefetchPolicyName(PrefetchPolicy policy)
{
    switch (policy) {
      case PrefetchPolicy::None:
        return "none";
      case PrefetchPolicy::OnMiss:
        return "on-miss";
      case PrefetchPolicy::Tagged:
        return "tagged";
    }
    panic("unknown PrefetchPolicy");
}

Status
CpuConfig::validate() const
{
    if (mshrs == 0)
        return Status::invalidArgument("NB needs at least one MSHR");
    if (feature != StallFeature::NB && mshrs != 1) {
        return Status::invalidArgument(
            "multiple MSHRs are only meaningful for the NB feature");
    }
    return Status();
}

double
TimingStats::phi(Cycles mu_m) const
{
    // With prefetching, part of the stall pool is paid on late
    // prefetches rather than demand fills; normalising by both
    // implements the paper's "phi can be scaled down to represent
    // the average miss penalty" reading (Sec. 3.3).
    const std::uint64_t events = fills + prefetchesLate;
    if (events == 0 || mu_m == 0)
        return 0.0;
    const double pool =
        static_cast<double>(initialMissWait) +
        static_cast<double>(inflightAccessStall) +
        static_cast<double>(missSerializationStall);
    return pool / (static_cast<double>(events) *
                   static_cast<double>(mu_m));
}

double
TimingStats::cpi() const
{
    if (instructions == 0)
        return 0.0;
    return static_cast<double>(cycles) /
           static_cast<double>(instructions);
}

double
TimingStats::meanMemoryDelay() const
{
    if (references == 0)
        return 0.0;
    // Sec. 4.5: (X - N_LS) / data refs, i.e. the hit cycles stay in
    // the numerator: (X - E)/refs + 1.
    const double delay = static_cast<double>(cycles) -
                         static_cast<double>(instructions);
    return delay / static_cast<double>(references) + 1.0;
}

std::string
TimingStats::format() const
{
    std::ostringstream os;
    os << "  cycles (X)          = " << cycles << '\n'
       << "  instructions (E)    = " << instructions << '\n'
       << "  CPI                 = " << cpi() << '\n'
       << "  data references     = " << references << '\n'
       << "  fills               = " << fills << '\n'
       << "  write-arounds (W)   = " << writeArounds << '\n'
       << "  initial miss wait   = " << initialMissWait << '\n'
       << "  in-flight stalls    = " << inflightAccessStall << '\n'
       << "  miss serialization  = " << missSerializationStall << '\n'
       << "  flush stalls        = " << flushStall << '\n'
       << "  write stalls        = " << writeStall << '\n'
       << "  buffer-full stalls  = " << bufferFullStall << '\n'
       << "  port contention     = " << portContentionWait << '\n'
       << "  prefetches          = " << prefetchesIssued
       << " (useful " << prefetchesUseful << ", late "
       << prefetchesLate << ")\n"
       << "  mean memory delay   = " << meanMemoryDelay() << '\n';
    return os.str();
}

void
TimingStats::registerStats(obs::StatRegistry &registry,
                           const std::string &prefix,
                           Cycles mu_m) const
{
    const obs::StatGroup root(registry, prefix);
    const auto s = [](std::uint64_t v) {
        return static_cast<double>(v);
    };

    const obs::StatGroup sim = root.group("sim");
    sim.addScalar("cycles", s(cycles),
                  "total execution time X", "cycles");
    sim.addScalar("instructions", s(instructions),
                  "instructions executed (E)", "count");
    sim.addScalar("references", s(references),
                  "data references processed", "count");
    sim.addScalar("fills", s(fills),
                  "line fills issued", "count");
    sim.addScalar("write_arounds", s(writeArounds),
                  "write-around store misses sent to memory (W)",
                  "count");

    const obs::StatGroup stall = root.group("stall");
    stall.addScalar("initial_miss_wait", s(initialMissWait),
                    "initial wait for missed data from fill grant",
                    "cycles");
    stall.addScalar("inflight_access", s(inflightAccessStall),
                    "stalls of accesses against in-flight lines",
                    "cycles");
    stall.addScalar("miss_serialization",
                    s(missSerializationStall),
                    "new misses waiting on a previous fill",
                    "cycles");
    stall.addScalar("flush", s(flushStall),
                    "synchronous dirty-victim flushes", "cycles");
    stall.addScalar("write", s(writeStall),
                    "synchronous write-around/write-through cost",
                    "cycles");
    stall.addScalar("buffer_full", s(bufferFullStall),
                    "CPU stalls on a full write buffer", "cycles");

    root.group("port").addScalar(
        "contention_wait", s(portContentionWait),
        "read grants delayed by writes on the port", "cycles");

    const obs::StatGroup prefetch = root.group("prefetch");
    prefetch.addScalar("issued", s(prefetchesIssued),
                       "prefetch transfers issued", "count");
    prefetch.addScalar("useful", s(prefetchesUseful),
                       "prefetched lines that served a demand",
                       "count");
    prefetch.addScalar("late", s(prefetchesLate),
                       "demand accesses catching an in-flight "
                       "prefetch", "count");

    const obs::StatGroup derived = root.group("derived");
    derived.addFormula("cpi", [copy = *this] {
        return copy.cpi();
    }, "cycles per instruction", "cycles/inst");
    derived.addFormula("mean_memory_delay", [copy = *this] {
        return copy.meanMemoryDelay();
    }, "mean memory delay per data reference (Sec. 4.5)",
    "cycles/ref");
    if (mu_m != 0) {
        derived.addFormula("phi", [copy = *this, mu_m] {
            return copy.phi(mu_m);
        }, "empirical stalling factor (Sec. 4.2)", "mu_m");
    }
}

TimingEngine::TimingEngine(const CacheConfig &cache_config,
                           const MemoryConfig &memory_config,
                           const WriteBufferConfig &wbuf_config,
                           const CpuConfig &cpu_config)
    : cache_(cache_config), timing_(memory_config),
      wbufConfig_(wbuf_config), cpuConfig_(cpu_config),
      scheduler_(timing_, wbuf_config),
      tracer_(&obs::globalTracer())
{
    okOrThrow(cpuConfig_.validate());
    if (cache_config.lineBytes < memory_config.busWidthBytes) {
        throw StatusError(Status::invalidArgument(
            "line size ", cache_config.lineBytes,
            " must be at least the bus width ",
            memory_config.busWidthBytes));
    }
}

void
TimingEngine::setTracer(obs::EventTracer *tracer)
{
    tracer_ = tracer ? tracer : &obs::globalTracer();
}

void
TimingEngine::pruneCompleted(Cycles now)
{
    std::erase_if(inflight_, [now](const InflightFill &f) {
        return f.complete <= now;
    });
}

const TimingEngine::InflightFill *
TimingEngine::findInflight(Addr line_addr) const
{
    for (const auto &fill : inflight_) {
        if (fill.lineAddr == line_addr)
            return &fill;
    }
    return nullptr;
}

Cycles
TimingEngine::latestCompletion(bool demand_only) const
{
    Cycles latest = 0;
    for (const auto &fill : inflight_) {
        if (demand_only && fill.isPrefetch)
            continue;
        latest = std::max(latest, fill.complete);
    }
    return latest;
}

Cycles
TimingEngine::chunkArrival(const InflightFill &fill, Addr addr) const
{
    const std::uint32_t chunk = static_cast<std::uint32_t>(
        (addr - fill.lineAddr) / timing_.config().busWidthBytes);
    UATM_ASSERT(chunk < fill.arrivalByChunk.size(),
                "address outside the in-flight line");
    return fill.arrivalByChunk[chunk];
}

TimingEngine::InflightFill &
TimingEngine::issueFill(Cycles when, Addr line_addr, Addr addr,
                        TimingStats &stats)
{
    const std::uint32_t line_bytes = cache_.config().lineBytes;
    const ReadGrant grant = scheduler_.requestRead(when, line_bytes);
    stats.portContentionWait += grant.busWait;
    if (grant.busWait > 0) {
        tracer_->record("port_contention", "port", when,
                        grant.busWait, line_addr);
    }

    const std::vector<Cycles> order =
        timing_.chunkCompletionTimes(grant.start, line_bytes);
    const std::uint32_t n = timing_.chunksPerLine(line_bytes);

    InflightFill fill;
    fill.lineAddr = line_addr;
    fill.start = grant.start;
    fill.complete = order.back();
    fill.arrivalByChunk.resize(n);
    // Requested-chunk-first, then wraparound: the chunk holding the
    // faulting address is delivered first.
    const std::uint32_t first = static_cast<std::uint32_t>(
        (addr - line_addr) / timing_.config().busWidthBytes);
    for (std::uint32_t k = 0; k < n; ++k)
        fill.arrivalByChunk[(first + k) % n] = order[k];

    tracer_->record("fill", "fill", fill.start,
                    fill.complete - fill.start, line_addr);
    inflight_.push_back(std::move(fill));
    ++stats.fills;
    tracer_->recordCounter("fills", inflight_.back().start,
                           stats.fills);
    return inflight_.back();
}

void
TimingEngine::issuePrefetch(Cycles when, Addr line_addr,
                            TimingStats &stats)
{
    if (cache_.probe(line_addr) || findInflight(line_addr))
        return;

    const std::uint32_t line_bytes = cache_.config().lineBytes;
    const PrefetchOutcome outcome = cache_.prefetchLine(line_addr);
    UATM_ASSERT(outcome.inserted, "prefetch of an absent line "
                "must insert it");

    // The victim flush and the prefetch transfer occupy the port
    // (serialised by the scheduler) but never stall the CPU.
    if (outcome.writeback && !cpuConfig_.suppressFlushTraffic)
        scheduler_.postWrite(when, line_bytes);
    const ReadGrant grant = scheduler_.requestRead(when, line_bytes);

    const std::vector<Cycles> order =
        timing_.chunkCompletionTimes(grant.start, line_bytes);
    InflightFill fill;
    fill.lineAddr = line_addr;
    fill.start = grant.start;
    fill.complete = order.back();
    fill.isPrefetch = true;
    fill.arrivalByChunk = order; // sequential from the line base
    tracer_->record("prefetch_issue", "prefetch", when, 0,
                    line_addr);
    tracer_->record("prefetch_fill", "prefetch", fill.start,
                    fill.complete - fill.start, line_addr);
    inflight_.push_back(std::move(fill));

    ++stats.prefetchesIssued;
    prefetchedUntouched_.insert(line_addr);
    if (prefetchedUntouched_.size() > 4096)
        prunePrefetchSet();
}

void
TimingEngine::prunePrefetchSet()
{
    std::erase_if(prefetchedUntouched_, [this](Addr line) {
        return !cache_.probe(line);
    });
}

TimingStats
TimingEngine::run(TraceSource &source, std::uint64_t max_refs)
{
    UATM_PROFILE_SCOPE("cpu.engine");
    obs::EventTracer &tracer = *tracer_;
    source.reset();
    cache_.reset();
    scheduler_.reset();
    inflight_.clear();
    prefetchedUntouched_.clear();

    TimingStats stats;
    Cycles now = 0;
    const std::uint32_t line_bytes = cache_.config().lineBytes;
    const StallFeature feature = cpuConfig_.feature;

    BatchPump pump(source);
    pump.pumpTo(max_refs, [&](const MemoryReference *batch,
                              std::size_t count) {
        for (const MemoryReference *ref = batch; ref != batch + count;
             ++ref) {
            // Non-memory instructions run one per cycle while any fill
            // proceeds in the background.
            now += ref->gap;
            stats.instructions += static_cast<std::uint64_t>(ref->gap) + 1;
            ++stats.references;
            pruneCompleted(now);

            Cycles issue = now;

            // BL: while the cache bus is locked by a demand fill,
            // every load/store stalls until the line is completely
            // fetched.  Prefetch transfers only hold the memory port.
            if (feature == StallFeature::BL && !inflight_.empty()) {
                const Cycles complete =
                    latestCompletion(/*demand_only=*/true);
                if (complete > issue) {
                    stats.inflightAccessStall += complete - issue;
                    tracer.record("bus_locked", "stall", issue,
                                  complete - issue, ref->addr);
                    issue = complete;
                }
                pruneCompleted(issue);
            }

            const AccessOutcome outcome = cache_.access(*ref);

            if (outcome.hit) {
                // A hit can still stall against the line being filled.
                if (const InflightFill *fill =
                        findInflight(outcome.lineAddr);
                    fill && fill->complete > issue) {
                    Cycles until = issue;
                    if (fill->isPrefetch) {
                        // A demand access caught the prefetched data
                        // on the bus: wait for the needed chunk only,
                        // whatever the stalling feature (the cache bus
                        // is not locked by prefetches).
                        until = std::max(issue,
                                         chunkArrival(*fill, ref->addr));
                        ++stats.prefetchesLate;
                    } else {
                        switch (feature) {
                          case StallFeature::FS:
                            panic("full-stalling CPU observed an "
                                  "in-flight demand line");
                          case StallFeature::BL:
                            // Already handled by the bus-locked stall.
                            break;
                          case StallFeature::BNL1:
                            until = fill->complete;
                            break;
                          case StallFeature::BNL2: {
                            const Cycles arrival =
                                chunkArrival(*fill, ref->addr);
                            // Arrived part: proceed; otherwise wait
                            // for the whole line.
                            until = arrival <= issue ? issue
                                                     : fill->complete;
                            break;
                          }
                          case StallFeature::BNL3:
                          case StallFeature::NB:
                            until = std::max(
                                issue, chunkArrival(*fill, ref->addr));
                            break;
                        }
                    }
                    if (until > issue) {
                        stats.inflightAccessStall += until - issue;
                        tracer.record(fill->isPrefetch
                                          ? "late_prefetch_cover"
                                          : "inflight_access",
                                      "stall", issue, until - issue,
                                      ref->addr);
                        issue = until;
                        pruneCompleted(issue);
                    }
                }

                // Prefetch bookkeeping: first demand touch of a
                // prefetched line counts as useful and, under the
                // tagged policy, fetches the successor.
                if (cpuConfig_.prefetch != PrefetchPolicy::None) {
                    auto it =
                        prefetchedUntouched_.find(outcome.lineAddr);
                    if (it != prefetchedUntouched_.end()) {
                        prefetchedUntouched_.erase(it);
                        ++stats.prefetchesUseful;
                        if (cpuConfig_.prefetch ==
                            PrefetchPolicy::Tagged) {
                            issuePrefetch(issue,
                                          outcome.lineAddr +
                                              line_bytes,
                                          stats);
                        }
                    }
                }

                Cycles cost = 1;
                if (outcome.storeToMemory) {
                    // Write-through hit: the store also goes to memory.
                    const Cycles resume =
                        scheduler_.postWrite(issue, ref->size);
                    if (resume > issue) {
                        stats.writeStall += resume - issue;
                        tracer.record("write_stall", "write", issue,
                                      resume - issue, ref->addr);
                        cost = std::max<Cycles>(1, resume - issue);
                    }
                }
                now = issue + cost;
                continue;
            }

            // ---- miss path ----

            // A new miss serialises behind outstanding fills unless the
            // NB feature has a free MSHR.
            if (!inflight_.empty()) {
                std::size_t demand_inflight = 0;
                for (const auto &fill : inflight_)
                    demand_inflight += !fill.isPrefetch;
                const bool free_mshr =
                    demand_inflight == 0 ||
                    (feature == StallFeature::NB &&
                     demand_inflight < cpuConfig_.mshrs);
                if (!free_mshr) {
                    // Wait for outstanding *demand* fills; in-flight
                    // prefetches only delay the grant via the port.
                    const Cycles complete =
                        latestCompletion(/*demand_only=*/true);
                    if (complete > issue) {
                        stats.missSerializationStall += complete - issue;
                        tracer.record("miss_serialization", "stall",
                                      issue, complete - issue,
                                      ref->addr);
                        issue = complete;
                    }
                    pruneCompleted(issue);
                }
            }

            if (!outcome.fill) {
                // Write-around store miss: a <= D-byte memory write.
                ++stats.writeArounds;
                const Cycles resume = scheduler_.postWrite(issue,
                                                           ref->size);
                Cycles cost = 1;
                if (resume > issue) {
                    stats.writeStall += resume - issue;
                    tracer.record("write_around", "write", issue,
                                  resume - issue, ref->addr);
                    cost = std::max<Cycles>(1, resume - issue);
                }
                now = issue + cost;
                continue;
            }

            // With no write buffer the dirty victim must be written
            // back before the fill can overwrite it.
            Cycles fill_request = issue;
            const bool flush_victim =
                outcome.writeback && !cpuConfig_.suppressFlushTraffic;
            if (flush_victim && wbufConfig_.depth == 0) {
                const Cycles done =
                    scheduler_.postWrite(fill_request, line_bytes);
                stats.flushStall += done - fill_request;
                tracer.record("flush", "write", fill_request,
                              done - fill_request,
                              outcome.victimLineAddr);
                fill_request = done;
            }

            // Copy the record: later prefetch issues may push into
            // inflight_ and invalidate references into it.
            const InflightFill fill =
                issueFill(fill_request, outcome.lineAddr, ref->addr,
                          stats);

            Cycles resume;
            switch (feature) {
              case StallFeature::FS:
                resume = fill.complete;
                stats.initialMissWait += fill.complete - fill.start;
                tracer.record("initial_miss_wait", "stall",
                              fill.start, fill.complete - fill.start,
                              ref->addr);
                tracer.recordCounter("stall_cycles", fill.complete,
                                     stats.initialMissWait +
                                         stats.inflightAccessStall +
                                         stats.missSerializationStall);
                break;
              case StallFeature::NB:
                // Fire and forget; the consumer stalls later if it
                // touches the line too early.
                resume = issue;
                break;
              default: {
                const Cycles first_chunk =
                    chunkArrival(fill, ref->addr);
                resume = first_chunk;
                stats.initialMissWait += first_chunk - fill.start;
                if (first_chunk > fill.start) {
                    tracer.record("initial_miss_wait", "stall",
                                  fill.start, first_chunk - fill.start,
                                  ref->addr);
                    tracer.recordCounter(
                        "stall_cycles", first_chunk,
                        stats.initialMissWait +
                            stats.inflightAccessStall +
                            stats.missSerializationStall);
                }
                break;
              }
            }

            if (flush_victim && wbufConfig_.depth > 0) {
                // The victim is parked in the buffer and posted once
                // the fill has delivered the line (Sec. 5.3, note (1)).
                const Cycles wb_resume =
                    scheduler_.postWrite(fill.complete, line_bytes);
                if (wb_resume > resume &&
                    wb_resume > fill.complete) {
                    const Cycles from = std::max(resume,
                                                 fill.complete);
                    stats.bufferFullStall += wb_resume - from;
                    tracer.record("buffer_full", "write", from,
                                  wb_resume - from,
                                  outcome.victimLineAddr);
                    resume = std::max(resume, wb_resume);
                }
            }

            // A demand miss triggers the next-line prefetch (both the
            // on-miss and tagged policies); the transfer queues behind
            // the demand fill on the port.
            if (cpuConfig_.prefetch != PrefetchPolicy::None) {
                issuePrefetch(issue, outcome.lineAddr + line_bytes,
                              stats);
            }

            // The missing load/store consumes its stall in place of the
            // base cycle (Eq. 2's accounting), never less than 1 cycle.
            now = std::max(resume, issue + 1);
            if (feature == StallFeature::FS)
                pruneCompleted(now);
        }
    });

    stats.cycles = now;
    return stats;
}

} // namespace uatm
