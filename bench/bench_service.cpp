// Load test of the multi-event warning service: N synthetic events replayed
// CONCURRENTLY against one WarningService (shared engine, worker pool,
// per-event ingest queues) versus the single-threaded baseline that replays
// the same N events through the same StreamingEngine one after another in
// one thread (the inner loop of ScenarioBank::run_streaming(serial), minus
// reporting).
//
// For each N in {1, 8, 64, 256} the table reports wall time, aggregate
// assimilated ticks/sec, the service/serial speedup, and the service's
// p50/p95/p99/max push-latency telemetry. The per-push work is identical on
// both sides (same slabs, same prefix-Cholesky extension), so the speedup
// isolates the serving layer: queueing overhead at the bottom, worker-pool
// scaling at the top. Expect speedup ~= min(workers, cores) for N >> workers
// on a multi-core box — the sessions share immutable slabs and never
// contend — and ~1x on a single-core machine (the pool can't create
// parallelism the hardware doesn't have; the printed thread/core counts
// qualify the numbers). Event data synthesis: one PDE forward solve, then
// per-event re-noising — the service sees N distinct data streams without
// N PDE solves.

#include <algorithm>
#include <cstdio>
#include <optional>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "service/engine_cache.hpp"
#include "service/warning_service.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main() {
  using namespace tsunami;
  namespace bu = tsunami::benchutil;

  TwinConfig config = TwinConfig::tiny();
  config.num_sensors = 8;
  config.num_gauges = 3;
  config.num_intervals = 32;
  config.observation_dt = 2.0;
  auto twin = std::make_shared<DigitalTwin>(config);

  RuptureConfig rc;
  Asperity a;
  a.x0 = 0.3 * twin->mesh().length_x();
  a.y0 = 0.5 * twin->mesh().length_y();
  a.rx = 16e3;
  a.ry = 24e3;
  a.peak_uplift = 2.2;
  rc.asperities.push_back(a);
  rc.hypocenter_x = a.x0;
  rc.hypocenter_y = a.y0;
  Rng rng(9);
  const SyntheticEvent event = twin->synthesize(RuptureScenario(rc), rng);
  twin->run_offline(event.noise);

  EngineCache cache({.track_map = false});  // forecast-only serving
  const auto engine = cache.adopt(std::move(twin));
  const std::size_t nt = engine->engine().num_ticks();
  const std::size_t nd = engine->engine().block_size();

  const std::size_t workers =
      std::max<std::size_t>(4, std::thread::hardware_concurrency());
  std::printf("=== Warning service load test ===\n");
  std::printf(
      "network: %zu sensors x %zu ticks | engine slabs shared by every "
      "session | %zu workers on %u hardware threads\n\n",
      nd, nt, workers, std::thread::hardware_concurrency());

  const std::size_t kMaxEvents = 256;
  std::vector<std::vector<double>> obs;
  obs.reserve(kMaxEvents);
  for (std::size_t e = 0; e < kMaxEvents; ++e) {
    obs.push_back(event.d_true);
    Rng noise(1000 + static_cast<unsigned>(e));
    for (auto& v : obs.back()) v += event.noise.sigma * noise.normal();
  }
  const auto block = [&](std::size_t e, std::size_t t) {
    return std::span<const double>(obs[e]).subspan(t * nd, nd);
  };

  TextTable table({"events", "serial", "service", "speedup", "ticks/s",
                   "p50", "p95", "p99", "max"});
  bu::JsonReport report("service");
  report.note("workers", static_cast<double>(workers));
  report.note("hardware_threads",
              static_cast<double>(std::thread::hardware_concurrency()));
  std::optional<double> speedup_at_64;  // only when the 64-event case ran
  // Quick (CI smoke) mode trims the sweep: the point is to execute the
  // serving path once, not to load-test a shared runner.
  const std::vector<std::size_t> event_counts =
      bu::quick_mode() ? std::vector<std::size_t>{1, 8}
                       : std::vector<std::size_t>{1, 8, 64, 256};
  for (const std::size_t n : event_counts) {
    // Single-threaded baseline: same events, same engine, one thread.
    Stopwatch serial_watch;
    for (std::size_t e = 0; e < n; ++e) {
      StreamingAssimilator assim = engine->engine().start();
      for (std::size_t t = 0; t < nt; ++t) assim.push(t, block(e, t));
    }
    const double serial_s = serial_watch.seconds();

    // Concurrent replay: one producer feeding round-robin (ticks arrive
    // across all live events each cadence interval, like a real feed), the
    // worker pool draining.
    WarningService service(
        {.num_workers = workers, .max_pending_per_event = nt});
    std::vector<EventId> ids;
    ids.reserve(n);
    Stopwatch service_watch;
    for (std::size_t e = 0; e < n; ++e)
      ids.push_back(service.open_event(engine));
    for (std::size_t t = 0; t < nt; ++t)
      for (std::size_t e = 0; e < n; ++e) service.submit(ids[e], t, block(e, t));
    service.drain();
    const double service_s = service_watch.seconds();
    const TelemetrySnapshot telem = service.telemetry();
    for (const EventId id : ids) (void)service.close_event(id);

    const double total_ticks = static_cast<double>(n * nt);
    const double speedup = serial_s / service_s;
    if (n == 64) speedup_at_64 = speedup;
    table.row()
        .cell(static_cast<long>(n))
        .cell(format_duration(serial_s))
        .cell(format_duration(service_s))
        .cell(speedup, 2)
        .cell(total_ticks / service_s, 0)
        .cell(format_duration(telem.push_latency.p50))
        .cell(format_duration(telem.push_latency.p95))
        .cell(format_duration(telem.push_latency.p99))
        .cell(format_duration(telem.push_latency.max));
    // Wall time per replay (reps=1: one concurrent replay per N) plus the
    // telemetry tails as shape entries — p95 is the ISSUE's tracked number.
    report.add("concurrent_replay",
               {{"events", static_cast<double>(n)},
                {"ticks_per_event", static_cast<double>(nt)},
                {"push_p50_ns", telem.push_latency.p50 * 1e9},
                {"push_p95_ns", telem.push_latency.p95 * 1e9},
                {"push_p99_ns", telem.push_latency.p99 * 1e9},
                // SLO: time from open_event to first published forecast,
                // one sample per event in this replay.
                {"ttff_p50_ns",
                 telem.time_to_first_forecast.percentile(50.0) * 1e9},
                {"ttff_p95_ns",
                 telem.time_to_first_forecast.percentile(95.0) * 1e9},
                {"serial_wall_ns", serial_s * 1e9}},
               bu::Stat{service_s * 1e9, service_s * 1e9, service_s * 1e9, 1});
  }
  std::printf("%s\n", table.str().c_str());
  if (speedup_at_64) {
    std::printf(
        "speedup at 64 concurrent events: %.2fx with %zu workers on %u "
        "hardware threads (sessions share one engine; scaling is bounded by "
        "min(workers, cores))\n",
        *speedup_at_64, workers, std::thread::hardware_concurrency());
    report.note("speedup_at_64", *speedup_at_64);
  }
  report.write();
  return 0;
}
