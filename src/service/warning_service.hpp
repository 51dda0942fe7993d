#pragma once

// WarningService: concurrent event sessions over shared warm-start engines.
//
// The paper's online phase serves ONE event; an operational warning center
// during a Cascadia sequence (mainshock, aftershocks, far-field arrivals —
// and scenario sweeps running alongside live events) needs many at once.
// This is the serving layer: drain jobs on the process-wide work-stealing
// ThreadPool pull per-event ingest queues and push observations through
// per-event StreamingAssimilators, all of which share the immutable
// per-network StreamingEngine slabs held by an EngineCache — hundreds of
// sessions, one copy of the operators. Each drain job owns one session.
//
//   EngineCache cache;                          // one per process
//   WarningService service({.num_workers = 8});
//   auto engine = cache.load("cascadia.bundle");        // warm start, once
//   EventId ev = service.open_event(engine, {.threshold = 1.0});
//   service.submit(ev, tick, d_block);          // any thread, any tick order
//   EventSnapshot s = service.latest_forecast(ev);      // lock-briefly read
//   EventSnapshot fin = service.close_event(ev);        // drains, removes
//
// Guarantees:
//   * per-event determinism — blocks are assimilated strictly in tick
//     order by at most one worker at a time, so an N-event concurrent
//     replay is bit-identical to N serial StreamingAssimilator replays
//     (asserted in tests/test_service.cpp);
//   * bounded memory — each session's ingest queue is capped
//     (max_pending_per_event) with a block-or-reject backpressure policy;
//   * observability — service-wide telemetry (events in flight, aggregate
//     ticks/sec, p50/p95/p99 push latency) via telemetry().

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <span>
#include <vector>

#include "service/engine_cache.hpp"
#include "service/event_session.hpp"
#include "service/service_telemetry.hpp"

namespace tsunami {

struct ServiceOptions {
  /// Maximum CONCURRENT drain jobs on the shared ThreadPool. Drains are
  /// fire-and-forget pool jobs, so service work and the twin's numeric
  /// loops share one set of workers instead of oversubscribing the machine.
  /// The cap bounds how much of the pool live events can claim while sweeps
  /// run alongside.
  std::size_t num_workers = 4;
  /// Per-session ingest-queue bound (the next-expected tick always bypasses
  /// it — see EventSession::submit).
  std::size_t max_pending_per_event = 128;
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
  /// Alert rule applied when open_event() is not given one.
  AlertPolicy default_alert{};
  /// Retained records in the service-wide lifecycle journal (EventJournal;
  /// oldest overwritten first). Appends are wait-free from drain workers.
  std::size_t journal_capacity = 1 << 16;
};

class WarningService {
 public:
  explicit WarningService(const ServiceOptions& options = {});

  /// Waits for in-flight drain jobs to finish, then detaches from the pool.
  /// Does NOT drain queued backlogs: buffered-but-unassimilated blocks are
  /// dropped (call drain() or close_event() first if they matter).
  ~WarningService();

  WarningService(const WarningService&) = delete;
  WarningService& operator=(const WarningService&) = delete;

  /// Register a new event over `engine` (from an EngineCache; the session
  /// shares the engine, nothing is copied). Thread-safe.
  [[nodiscard]] EventId open_event(std::shared_ptr<const CachedEngine> engine);
  [[nodiscard]] EventId open_event(std::shared_ptr<const CachedEngine> engine,
                                   const AlertPolicy& alert);

  /// Ingest observation interval `tick` of event `id`. Any thread, any
  /// tick order within the event window; duplicates and out-of-range ticks
  /// throw std::invalid_argument, unknown ids std::out_of_range, closed
  /// events std::logic_error, and a full queue blocks or throws
  /// ServiceOverloaded per the backpressure policy.
  void submit(EventId id, std::size_t tick, std::span<const double> d_block);

  /// Partial-tick ingest: `valid[c] == 0` marks channel c as lost on the
  /// wire for this block only (empty = all present). Malformed blocks
  /// (wrong data or bitmap dimension, impossible tick) are journaled as
  /// kReject and refused with std::invalid_argument at this boundary —
  /// never out of a drain worker.
  void submit(EventId id, std::size_t tick, std::span<const double> d_block,
              std::span<const std::uint8_t> valid);

  /// Degraded-mode control plane: mask sensor channel `s` out of event
  /// `id`'s assimilation, mid-stream. The event's posterior becomes the
  /// exact posterior over the surviving network (all past and future data
  /// from `s` projected out); the corrected forecast republishes
  /// immediately and the journal records kSensorDrop.
  void drop_sensor(EventId id, std::size_t s);
  /// Undo drop_sensor: re-admit channel `s`. The drop was a projection, not
  /// a deletion, so data from `s` assimilated BEFORE the drop returns to
  /// the posterior exactly; ticks that arrived while the channel was masked
  /// stay projected out forever (their payload was discarded at ingest).
  /// Journals kSensorRestore.
  void restore_sensor(EventId id, std::size_t s);

  /// Latest rolling forecast + alert state of one event (cheap snapshot).
  [[nodiscard]] EventSnapshot latest_forecast(EventId id) const;

  /// Drain the event's remaining in-order backlog, remove it from the
  /// service, and return its final state. Subsequent submits/queries on
  /// the id throw. Buffered blocks beyond a tick gap are discarded (they
  /// could never be assimilated) and reported via ticks_pending.
  EventSnapshot close_event(EventId id);

  /// Block until every open session's in-order backlog is assimilated.
  void drain();

  [[nodiscard]] TelemetrySnapshot telemetry() const {
    return telemetry_.snapshot();
  }
  /// Contribute the service's metric series to an export snapshot; render
  /// with obs::prometheus_text. Beyond the telemetry counters and SLO
  /// histograms (tsunami_service_* / tsunami_slo_*) this adds a
  /// per-live-session tsunami_service_forecast_staleness_seconds gauge
  /// (labelled by event id, computed at scrape time) and the journal
  /// record/drop counters.
  void collect_metrics(obs::MetricsSnapshot& snapshot) const;
  /// The service-wide lifecycle journal (export with journal().json_lines()).
  [[nodiscard]] const EventJournal& journal() const { return journal_; }
  /// Live per-event state as one JSON object — the /events introspection
  /// route: {"events":[{id, ticks, pending, complete, alert, alert_tick,
  /// staleness_seconds, journal:[...]}, ...], "journal_appended": N,
  /// "journal_dropped": M}. Each event's journal rows are inlined.
  [[nodiscard]] std::string events_json() const;
  [[nodiscard]] std::size_t events_in_flight() const;
  [[nodiscard]] const ServiceOptions& options() const { return options_; }

 private:
  [[nodiscard]] std::shared_ptr<EventSession> session(EventId id) const;
  /// The open sessions, copied under sessions_mutex_ so the caller can wait
  /// on or query them without holding it.
  [[nodiscard]] std::vector<std::shared_ptr<EventSession>> open_sessions()
      const;
  /// drop_sensor / restore_sensor: queue the op; if that makes this caller
  /// the owner of an idle session, drain it inline so the corrected
  /// forecast is published before returning.
  void set_sensor(EventId id, std::size_t s, bool live);
  /// Queue a session whose scheduled flag the caller just won.
  void enqueue_ready(EventSession* s);
  /// Launch drain jobs for queued sessions while under the concurrency cap.
  /// Called under queue_mutex_.
  void pump_locked();
  /// Body of one pool drain job: drain the session, then release the drain
  /// slot and pump again.
  void run_drain(EventSession* s);

  ServiceOptions options_;
  ServiceTelemetry telemetry_;
  EventJournal journal_;  ///< shared by every session; outlives them all

  // Lock order: sessions_mutex_ before any session's internal lock;
  // queue_mutex_ is a leaf (never held while calling into sessions).
  mutable std::mutex sessions_mutex_;
  std::map<EventId, std::shared_ptr<EventSession>> sessions_;
  EventId next_id_ = 1;

  std::mutex queue_mutex_;
  std::condition_variable drains_cv_;  ///< dtor waits for active_drains_ == 0
  /// Scheduled sessions waiting for a drain slot, oldest first, linked
  /// through EventSession::ready_next_.
  EventSession* ready_head_ = nullptr;
  EventSession* ready_tail_ = nullptr;
  std::size_t active_drains_ = 0;  ///< pool jobs currently draining
  bool stopping_ = false;
};

}  // namespace tsunami
