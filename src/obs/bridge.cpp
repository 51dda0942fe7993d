#include "obs/bridge.hpp"

#include <algorithm>
#include <string>

#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "util/timer.hpp"

namespace tsunami::obs {

void collect_timers(const TimerRegistry& timers, MetricsSnapshot& snapshot,
                    const std::string& prefix) {
  for (const std::string& name : timers.names()) {
    snapshot.counter(prefix + "_seconds_total", timers.total(name),
                     {{"phase", name}},
                     "Accumulated wall-clock seconds per named phase");
    snapshot.counter(prefix + "_invocations_total",
                     static_cast<double>(timers.count(name)),
                     {{"phase", name}}, "Phase invocation count");
  }
}

void collect_pool(const ThreadPool& pool, MetricsSnapshot& snapshot) {
  snapshot.gauge("tsunami_pool_workers",
                 static_cast<double>(pool.num_threads()), {},
                 "Worker threads in the process-wide pool");
  snapshot.counter("tsunami_pool_steals_total",
                   static_cast<double>(pool.steal_count()), {},
                   "Cross-worker deque steals since pool spawn");
  const double uptime = pool.uptime_seconds();
  snapshot.gauge("tsunami_pool_uptime_seconds", uptime, {},
                 "Seconds since the current worker set was spawned");
  const auto stats = pool.worker_stats();
  for (std::size_t i = 0; i < stats.size(); ++i) {
    const Labels labels = {{"worker", std::to_string(i)}};
    snapshot.counter("tsunami_pool_worker_jobs_total",
                     static_cast<double>(stats[i].jobs), labels,
                     "Jobs and loop items executed by this worker");
    snapshot.counter("tsunami_pool_worker_steals_total",
                     static_cast<double>(stats[i].steals), labels,
                     "Successful steals performed by this worker");
    snapshot.counter("tsunami_pool_worker_busy_seconds_total",
                     stats[i].busy_seconds, labels,
                     "Wall-clock seconds spent executing work");
    snapshot.counter("tsunami_pool_worker_spin_seconds_total",
                     stats[i].spin_seconds, labels,
                     "Wall-clock seconds spent spinning for work before "
                     "parking");
    snapshot.gauge("tsunami_pool_worker_queue_depth",
                   static_cast<double>(stats[i].queue_depth), labels,
                   "Entries currently in this worker's deque");
    snapshot.gauge(
        "tsunami_pool_worker_utilization",
        uptime > 0.0 ? std::min(1.0, stats[i].busy_seconds / uptime) : 0.0,
        labels, "Busy fraction of wall time since spawn, in [0, 1]");
  }
}

void collect_trace(MetricsSnapshot& snapshot) {
  snapshot.counter("tsunami_trace_dropped_total",
                   static_cast<double>(trace_dropped_count()), {},
                   "Spans overwritten by trace-ring wrap (size the ring via "
                   "TSUNAMI_TRACE_RING)");
  snapshot.gauge("tsunami_trace_spans_retained",
                 static_cast<double>(trace_span_count()), {},
                 "Spans currently retained across all thread rings");
  snapshot.gauge("tsunami_trace_ring_capacity",
                 static_cast<double>(trace_buffer_capacity()), {},
                 "Per-thread span-ring capacity for new threads");
  snapshot.gauge("tsunami_trace_enabled", trace_enabled() ? 1.0 : 0.0, {},
                 "1 while the flight recorder is recording spans");
}

}  // namespace tsunami::obs
