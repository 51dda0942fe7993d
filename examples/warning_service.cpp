// Serving many events at once: the multi-event warning service.
//
// An operational center during a Cascadia sequence tracks many events at
// once — mainshock, aftershocks, exercise replays — all over the same
// sensor network. This example runs that morning end to end, in one process
// for convenience:
//
//   1. HPC side: build the offline operators once, ship a bundle.
//   2. Boot an EngineCache from the bundle (warm start, zero PDE solves)
//      and show that a second load of the same network is a cache hit —
//      the same engine instance, keyed by the config fingerprint.
//   3. Open one WarningService session per live event and feed all of
//      them concurrently, with deliberately out-of-order packets (pairs
//      swapped) to exercise the per-session reordering buffer.
//   4. Print the per-event alert table and the service telemetry line
//      (events in flight, aggregate ticks/sec, p50/p95/p99 push latency).
//
//   $ ./examples/warning_service [n_events]     # default 6
//
// A malformed event count or TSUNAMI_FAULT_* / TSUNAMI_HTTP value is
// reported with the usage line before any offline work, and exits 1.
//
// Observability hooks (all optional, see docs/ARCHITECTURE.md):
//   TSUNAMI_TRACE=trace.json    flight-recorder spans -> Chrome trace JSON
//                               (open in Perfetto / chrome://tracing)
//   TSUNAMI_METRICS=metrics.prom  Prometheus text exposition of the service,
//                               pool, and offline-phase metrics at exit
//   TSUNAMI_HTTP=host:port      live introspection server while the replay
//                               runs: GET /metrics /healthz /readyz /tracez
//                               /events (curl any of them mid-replay)
//   TSUNAMI_HTTP_LINGER=secs    keep serving that long after the replay
//                               drains, BEFORE events close (CI scrapes a
//                               live service this way)
//   TSUNAMI_JOURNAL=path        per-event lifecycle journal -> JSON Lines
//
// Fault injection (deterministic, seeded — see src/service/fault_injector):
//   TSUNAMI_FAULT_SEED=42                  decision-hash seed
//   TSUNAMI_FAULT_DROP_SENSOR=2@5,0@8-20   sensor outages (chan@tick[-restore])
//   TSUNAMI_FAULT_PACKET_LOSS=0.05         P(block lost) per (event, tick)
//   TSUNAMI_FAULT_CORRUPT=0.01             P(block corrupt) per (event, tick)
// Lost blocks are submitted with an all-zeros validity bitmap (the stream
// keeps moving; the posterior is exact over what arrived). Corrupt blocks
// are submitted with the wrong dimension, rejected at the submit boundary
// (journal `reject`), and then retransmitted clean.

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/scenario_bank.hpp"
#include "obs/bridge.hpp"
#include "obs/http_exporter.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "service/engine_cache.hpp"
#include "service/fault_injector.hpp"
#include "service/warning_service.hpp"
#include "util/table.hpp"

namespace {

/// Report a bad input with the usage line; main returns this.
int usage_error(const std::string& reason) {
  std::fprintf(stderr,
               "warning_service: %s\n"
               "usage: warning_service [n_events]   (n_events >= 1, default 6)\n",
               reason.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tsunami;

  // Every input is parsed before the offline build, so a typo fails fast.
  std::size_t n_events = 6;
  if (argc > 1) {
    const std::string arg = argv[1];
    const auto [end, ec] =
        std::from_chars(arg.data(), arg.data() + arg.size(), n_events);
    if (ec != std::errc{} || end != arg.data() + arg.size() || n_events == 0)
      return usage_error("n_events must be a positive integer, got '" + arg +
                         "'");
  }
  FaultPlan fault_plan;
  try {
    fault_plan = FaultPlan::from_env();
  } catch (const std::invalid_argument& e) {
    return usage_error(e.what());
  }
  const char* http_spec = std::getenv("TSUNAMI_HTTP");
  if (http_spec != nullptr && *http_spec == '\0') http_spec = nullptr;
  std::string http_host;
  std::uint16_t http_port = 0;
  if (http_spec != nullptr &&
      !obs::HttpExporter::parse_hostport(http_spec, http_host, http_port))
    return usage_error(std::string("bad TSUNAMI_HTTP spec: ") + http_spec);

  TwinConfig config = TwinConfig::tiny();
  config.num_intervals = 24;
  config.observation_dt = 4.0;  // 96 s window: the spread's events complete

  std::printf("=== Multi-event warning service ===\n");
  std::printf("[offline] building operators + bundle (the HPC side, once)\n");
  const std::string bundle_path = "warning_service_demo.bundle";
  std::vector<std::vector<double>> d_obs, q_true;
  std::vector<ScenarioSpec> specs;
  {
    DigitalTwin builder(config);
    ScenarioBank bank(builder, ScenarioBank::spread(builder, n_events));
    bank.synthesize();
    builder.run_offline(bank.shared_noise());
    builder.save_offline(bundle_path);
    specs = bank.specs();
    for (const auto& ev : bank.events()) {
      d_obs.push_back(ev.d_obs);
      q_true.push_back(ev.q_true);
    }
    // The builder twin dies here: the warning center below runs entirely
    // off the shipped bundle.
  }

  Stopwatch boot;
  EngineCache cache({.track_map = false});
  const auto engine = cache.load(bundle_path);
  std::printf("[online] warm boot from %s: %s to streaming-ready\n",
              bundle_path.c_str(), format_duration(boot.seconds()).c_str());
  Stopwatch reload;
  const bool hit = cache.load(bundle_path).get() == engine.get();
  std::printf("[online] second load: %s (%s — one engine per network "
              "fingerprint, %zu cached)\n\n",
              hit ? "cache hit" : "MISS?!", format_duration(reload.seconds()).c_str(),
              cache.size());

  const std::size_t nt = engine->engine().num_ticks();
  const std::size_t nd = engine->engine().block_size();
  const double dt = config.observation_dt;

  WarningService service({.num_workers = 4, .max_pending_per_event = nt});

  // TSUNAMI_HTTP=host:port — serve live introspection for the whole replay.
  // Declared after `service`, so it is destroyed (threads joined) first.
  std::unique_ptr<obs::HttpExporter> http;
  if (http_spec != nullptr) {
    http = std::make_unique<obs::HttpExporter>(
        obs::HttpExporter::Options{.host = http_host, .port = http_port});
    http->route("/metrics", [&](const obs::HttpRequest&) {
      obs::MetricsSnapshot snap;
      service.collect_metrics(snap);
      obs::collect_pool(ThreadPool::global(), snap);
      obs::collect_timers(engine->twin().timers(), snap);
      obs::collect_trace(snap);
      return obs::HttpResponse{
          200, "text/plain; version=0.0.4; charset=utf-8",
          obs::prometheus_text(snap)};
    });
    http->route("/healthz", [](const obs::HttpRequest&) {
      return obs::HttpResponse{200, "text/plain; charset=utf-8", "ok\n"};
    });
    http->route("/readyz", [&](const obs::HttpRequest&) {
      return cache.size() > 0
                 ? obs::HttpResponse{200, "text/plain; charset=utf-8", "ok\n"}
                 : obs::HttpResponse{503, "text/plain; charset=utf-8",
                                     "no engine loaded\n"};
    });
    http->route("/tracez", [](const obs::HttpRequest&) {
      return obs::HttpResponse{200, "application/json",
                               obs::chrome_trace_json()};
    });
    http->route("/events", [&](const obs::HttpRequest&) {
      return obs::HttpResponse{200, "application/json",
                               service.events_json()};
    });
    if (!http->start()) {
      std::fprintf(stderr, "[obs] could not bind %s: %s\n", http_spec,
                   http->last_error().c_str());
      return 1;
    }
    std::printf("[obs] introspection server on %s:%u "
                "(/metrics /healthz /readyz /tracez /events)\n",
                http_host.c_str(), static_cast<unsigned>(http->port()));
  }

  std::vector<EventId> ids;
  std::vector<double> thresholds;
  for (std::size_t e = 0; e < n_events; ++e) {
    // Demo warning rule per event: half its eventual peak, debounced over
    // two consecutive ticks (a deployed center uses fixed hazard levels).
    const double peak = *std::max_element(q_true[e].begin(), q_true[e].end());
    thresholds.push_back(0.5 * peak);
    ids.push_back(service.open_event(
        engine, {.threshold = 0.5 * peak, .debounce_ticks = 2}));
  }

  // Deterministic fault injection over the feed (TSUNAMI_FAULT_*): scripted
  // sensor outages plus hash-seeded packet loss and corruption. Counters
  // are reported after the replay; the journal and /metrics carry the
  // per-event record.
  const FaultInjector faults(std::move(fault_plan));
  std::size_t faults_lost = 0, faults_corrupt = 0, faults_sensor_ops = 0;
  const std::vector<std::uint8_t> all_lost(nd, 0);
  const std::vector<double> oversized(nd + 1, 0.0);
  const auto submit_with_faults = [&](std::size_t e, std::size_t t) {
    const auto block = std::span<const double>(d_obs[e]).subspan(t * nd, nd);
    if (faults.lose_block(ids[e], t)) {
      ++faults_lost;
      service.submit(ids[e], t, block, all_lost);  // lost in transit
      return;
    }
    if (faults.corrupt_block(ids[e], t)) {
      try {
        service.submit(ids[e], t, oversized);  // wrong dimension on the wire
      } catch (const std::invalid_argument&) {
        ++faults_corrupt;  // rejected at the boundary, journaled as `reject`
      }
      // ... and the transport retransmits the genuine block.
    }
    service.submit(ids[e], t, block);
  };

  // Live feed: every cadence interval delivers one block per event, and the
  // transport swaps each pair of ticks (1 before 0, 3 before 2, ...) — the
  // per-session reordering buffer puts them back in causal order.
  for (std::size_t t0 = 0; t0 < nt; t0 += 2) {
    // Scripted sensor outages fire at tick boundaries, against every event
    // (the network is shared — a dead cable is dead for everyone).
    for (std::size_t t = t0; t < std::min(t0 + 2, nt); ++t) {
      for (const auto& [chan, live] : faults.sensor_ops_at(t)) {
        for (std::size_t e = 0; e < n_events; ++e) {
          if (live)
            service.restore_sensor(ids[e], chan);
          else
            service.drop_sensor(ids[e], chan);
          ++faults_sensor_ops;
        }
      }
    }
    for (std::size_t e = 0; e < n_events; ++e) {
      if (t0 + 1 < nt) submit_with_faults(e, t0 + 1);
      submit_with_faults(e, t0);
    }
  }
  service.drain();
  if (faults.plan().any())
    std::printf("[faults] seed %llu: %zu blocks lost, %zu corrupt rejected, "
                "%zu sensor ops\n",
                static_cast<unsigned long long>(faults.plan().seed),
                faults_lost, faults_corrupt, faults_sensor_ops);

  // TSUNAMI_HTTP_LINGER=secs: hold the replayed-but-still-open sessions so
  // an external scraper (CI) can observe a LIVE service — events in flight,
  // per-session staleness, journals still attached to open sessions.
  if (const char* linger = std::getenv("TSUNAMI_HTTP_LINGER");
      http != nullptr && linger != nullptr && *linger != '\0') {
    const double secs = std::atof(linger);
    std::printf("[obs] lingering %.1fs with %zu live events for scrapes\n",
                secs, service.events_in_flight());
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<long>(secs * 1000.0)));
  }

  TextTable table({"event", "Mw", "alert @", "peak @", "lead", "q err",
                   "ticks", "deg"});
  for (std::size_t e = 0; e < n_events; ++e) {
    const EventSnapshot s = service.close_event(ids[e]);
    const std::size_t peak_idx = static_cast<std::size_t>(
        std::max_element(q_true[e].begin(), q_true[e].end()) -
        q_true[e].begin());
    const double peak_seconds =
        static_cast<double>(peak_idx / config.num_gauges + 1) * dt;
    const double alert_seconds = static_cast<double>(s.alert_tick) * dt;
    char ticks[32];
    std::snprintf(ticks, sizeof(ticks), "%zu/%zu", s.ticks_assimilated, nt);
    table.row()
        .cell(specs[e].name)
        .cell(specs[e].magnitude, 2)
        .cell(s.alert ? format_duration(alert_seconds) : "-")
        .cell(format_duration(peak_seconds))
        .cell(s.alert && peak_seconds > alert_seconds
                  ? format_duration(peak_seconds - alert_seconds)
                  : "-")
        .cell(DigitalTwin::relative_error(s.forecast.mean, q_true[e]), 3)
        .cell(ticks)
        .cell(s.degraded ? std::to_string(s.dropped_channels) + " ch" : "-");
  }
  std::printf("%s\n", table.str().c_str());
  std::printf("telemetry: %s\n", service.telemetry().str().c_str());

  // TSUNAMI_METRICS=path: one scrape of every layer — service counters and
  // the push-latency histogram, pool worker stats, and the warm twin's phase
  // timers — through the single Prometheus export path.
  if (const char* metrics_path = std::getenv("TSUNAMI_METRICS");
      metrics_path != nullptr && *metrics_path != '\0') {
    obs::MetricsSnapshot snap;
    service.collect_metrics(snap);
    obs::collect_pool(ThreadPool::global(), snap);
    obs::collect_timers(engine->twin().timers(), snap);
    obs::collect_trace(snap);
    const std::string text = obs::prometheus_text(snap);
    if (std::FILE* f = std::fopen(metrics_path, "w")) {
      std::fwrite(text.data(), 1, text.size(), f);
      std::fclose(f);
      std::printf("[obs] wrote %zu metric samples to %s\n", snap.samples.size(),
                  metrics_path);
    } else {
      std::fprintf(stderr, "[obs] could not write metrics to %s\n",
                   metrics_path);
    }
  }

  // TSUNAMI_JOURNAL=path: the full lifecycle journal as JSON Lines — the
  // open -> first_tick -> push... -> alert_latch -> close timeline of every
  // event, each push row carrying its queue/push/publish latency budget.
  if (const char* journal_path = std::getenv("TSUNAMI_JOURNAL");
      journal_path != nullptr && *journal_path != '\0') {
    const std::string lines = service.journal().json_lines();
    if (std::FILE* f = std::fopen(journal_path, "w")) {
      std::fwrite(lines.data(), 1, lines.size(), f);
      std::fclose(f);
      std::printf("[obs] wrote %llu journal records to %s\n",
                  static_cast<unsigned long long>(
                      service.journal().appended()),
                  journal_path);
    } else {
      std::fprintf(stderr, "[obs] could not write journal to %s\n",
                   journal_path);
    }
  }

  std::remove(bundle_path.c_str());
  return 0;
}
