/**
 * @file
 * Umbrella header: the full public API of the uatm library.
 *
 * Fine-grained headers remain available (and are preferred inside
 * the library itself); this header is a convenience for
 * downstream users:
 *
 * @code
 *   #include "uatm.hh"
 *
 *   uatm::TradeoffContext ctx;
 *   ctx.machine.cycleTime = 8;
 *   double r = uatm::missFactorDoubleBus(ctx);
 * @endcode
 */

#ifndef UATM_UATM_HH
#define UATM_UATM_HH

// Utilities.
#include "util/ascii_chart.hh"
#include "util/file.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/status.hh"
#include "util/table.hh"

// Workload substrate.
#include "trace/file_store.hh"
#include "trace/generators.hh"
#include "trace/ifetch.hh"
#include "trace/io.hh"
#include "trace/ref.hh"
#include "trace/source.hh"
#include "trace/trace_stats.hh"

// Cache substrate.
#include "cache/cache.hh"
#include "cache/config.hh"
#include "cache/replacement.hh"
#include "cache/sweep.hh"
#include "cache/victim.hh"

// Memory-system substrate.
#include "memory/timing.hh"
#include "memory/write_buffer.hh"

// Timing engine.
#include "cpu/phi_measurement.hh"
#include "cpu/stall_feature.hh"
#include "cpu/timing_engine.hh"

// The tradeoff methodology.
#include "core/equivalence.hh"
#include "core/execution_time.hh"
#include "core/machine.hh"
#include "core/size_model.hh"
#include "core/tradeoff.hh"
#include "core/workload.hh"

// Line-size arm.
#include "linesize/cost_model.hh"
#include "linesize/delay_model.hh"
#include "linesize/line_tradeoff.hh"
#include "linesize/miss_table.hh"

// Experiment layer: scenarios, the parallel runner, result tables.
#include "exp/result_table.hh"
#include "exp/runner.hh"
#include "exp/scenario.hh"
#include "exp/scenarios.hh"
#include "exp/workload_spec.hh"

#endif // UATM_UATM_HH
