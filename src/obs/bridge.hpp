#pragma once

// Collectors that bridge pre-existing instrumentation — the offline
// TimerRegistry phase tables and the ThreadPool's per-worker counters — into
// a MetricsSnapshot, so `prometheus_text(snapshot)` is the single export path
// for offline phase timings, pool health, and online service telemetry
// alike. Collectors read point-in-time values; calling them twice into two
// snapshots never double-counts.

#include <string>

#include "obs/metrics.hpp"

namespace tsunami {
class ThreadPool;
class TimerRegistry;
}  // namespace tsunami

namespace tsunami::obs {

/// One sample pair per timer: `<prefix>_seconds_total{phase="..."}` and
/// `<prefix>_invocations_total{phase="..."}`. Default prefix yields
/// tsunami_phase_seconds_total — the offline Table-I analogue.
void collect_timers(const TimerRegistry& timers, MetricsSnapshot& snapshot,
                    const std::string& prefix = "tsunami_phase");

/// Pool-wide and per-worker health: tsunami_pool_workers,
/// tsunami_pool_queue_depth (jobs waiting in the pool's one queue),
/// tsunami_pool_uptime_seconds, and per worker i the series
/// tsunami_pool_worker_{jobs_total, busy_seconds_total, spin_seconds_total,
/// utilization}{worker="i"}. Utilization is busy wall time over pool uptime
/// in [0, 1]; the idle spin before a worker parks is its own counter, not
/// part of the busy time.
void collect_pool(const ThreadPool& pool, MetricsSnapshot& snapshot);

/// Flight-recorder health: tsunami_trace_dropped_total (spans overwritten by
/// ring wrap — nonzero means an export is a suffix, size the ring up via
/// TSUNAMI_TRACE_RING), tsunami_trace_spans_retained,
/// tsunami_trace_ring_capacity, and tsunami_trace_enabled.
void collect_trace(MetricsSnapshot& snapshot);

}  // namespace tsunami::obs
