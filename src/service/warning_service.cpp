#include "service/warning_service.hpp"

#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"

namespace tsunami {

WarningService::WarningService(const ServiceOptions& options)
    : options_(options), journal_(options.journal_capacity) {
  if (options_.num_workers == 0)
    throw std::invalid_argument("WarningService: num_workers == 0");
  if (options_.max_pending_per_event == 0)
    throw std::invalid_argument("WarningService: max_pending_per_event == 0");
}

WarningService::~WarningService() {
  // No threads to join — drains are jobs on the shared pool. Refuse new
  // launches, drop the not-yet-launched queue (sessions die with us), and
  // wait out the in-flight jobs: each still touches its session and `this`
  // (telemetry, the drain slot) until it signals drains_cv_.
  std::unique_lock<std::mutex> lock(queue_mutex_);
  stopping_ = true;
  ready_head_ = ready_tail_ = nullptr;
  drains_cv_.wait(lock, [&] { return active_drains_ == 0; });
}

EventId WarningService::open_event(
    std::shared_ptr<const CachedEngine> engine) {
  return open_event(std::move(engine), options_.default_alert);
}

EventId WarningService::open_event(std::shared_ptr<const CachedEngine> engine,
                                   const AlertPolicy& alert) {
  // Session construction (one StreamingAssimilator: a few vectors) happens
  // outside the sessions lock; only the id allocation and map insert are
  // serialized.
  EventId id;
  {
    const std::lock_guard<std::mutex> lock(sessions_mutex_);
    id = next_id_++;
  }
  auto session = std::make_shared<EventSession>(
      id, std::move(engine), alert, options_.max_pending_per_event,
      options_.backpressure, &journal_);
  {
    const std::lock_guard<std::mutex> lock(sessions_mutex_);
    sessions_.emplace(id, std::move(session));
  }
  telemetry_.on_event_opened();
  return id;
}

void WarningService::submit(EventId id, std::size_t tick,
                            std::span<const double> d_block) {
  // Hold the session by shared_ptr, not iterator: a concurrent close only
  // removes it from the map, and a submit that raced past the removal gets
  // the session's own closed-event throw.
  const std::shared_ptr<EventSession> s = session(id);
  if (s->submit(tick, d_block, telemetry_)) enqueue_ready(s.get());
}

void WarningService::submit(EventId id, std::size_t tick,
                            std::span<const double> d_block,
                            std::span<const std::uint8_t> valid) {
  const std::shared_ptr<EventSession> s = session(id);
  if (s->submit(tick, d_block, valid, telemetry_)) enqueue_ready(s.get());
}

void WarningService::drop_sensor(EventId id, std::size_t s) {
  set_sensor(id, s, /*live=*/false);
}

void WarningService::restore_sensor(EventId id, std::size_t s) {
  set_sensor(id, s, /*live=*/true);
}

void WarningService::set_sensor(EventId id, std::size_t s, bool live) {
  const std::shared_ptr<EventSession> owned = session(id);
  if (owned->set_sensor(s, live)) owned->drain(telemetry_);
}

EventSnapshot WarningService::latest_forecast(EventId id) const {
  return session(id)->snapshot();
}

EventSnapshot WarningService::close_event(EventId id) {
  std::shared_ptr<EventSession> s;
  {
    const std::lock_guard<std::mutex> lock(sessions_mutex_);
    auto it = sessions_.find(id);
    if (it == sessions_.end())
      throw std::out_of_range("WarningService: unknown event id");
    s = std::move(it->second);
    sessions_.erase(it);
  }
  s->begin_close();
  s->wait_idle();
  telemetry_.on_event_closed();
  EventSnapshot final_state = s->snapshot();
  s->journal_mark(JournalKind::kClose, final_state.ticks_assimilated);
  return final_state;
}

void WarningService::drain() {
  for (const auto& s : open_sessions()) s->wait_idle();
}

std::size_t WarningService::events_in_flight() const {
  const std::lock_guard<std::mutex> lock(sessions_mutex_);
  return sessions_.size();
}

void WarningService::collect_metrics(obs::MetricsSnapshot& snapshot) const {
  telemetry_.collect_into(snapshot);
  snapshot.counter("tsunami_service_journal_records_total",
                   static_cast<double>(journal_.appended()), {},
                   "Lifecycle journal records ever appended");
  snapshot.counter("tsunami_service_journal_dropped_total",
                   static_cast<double>(journal_.dropped()), {},
                   "Journal records overwritten by ring wrap");
  // Per-session staleness is computed at scrape time from each session's
  // last-publish stamp — nothing is registered per event, so the metric
  // surface stays bounded by the live session count.
  std::size_t degraded_sessions = 0;
  for (const auto& s : open_sessions()) {
    snapshot.gauge("tsunami_service_forecast_staleness_seconds",
                   s->staleness_seconds(),
                   {{"event", std::to_string(s->id())}},
                   "Seconds since this event last published a forecast");
    const auto [degraded, dropped] = s->degraded_state();
    if (degraded) ++degraded_sessions;
    if (dropped > 0)
      snapshot.gauge("tsunami_service_dropped_channels",
                     static_cast<double>(dropped),
                     {{"event", std::to_string(s->id())}},
                     "Sensor channels currently masked out of this event");
  }
  snapshot.gauge("tsunami_service_degraded_sessions",
                 static_cast<double>(degraded_sessions), {},
                 "Sessions currently publishing degraded (reduced-network) "
                 "forecasts");
}

std::string WarningService::events_json() const {
  const std::vector<std::shared_ptr<EventSession>> open = open_sessions();
  const std::vector<JournalRecord> records = journal_.snapshot();

  std::string out = "{\"events\":[";
  bool first_event = true;
  for (const auto& s : open) {
    const EventSnapshot snap = s->snapshot();
    if (!first_event) out += ',';
    first_event = false;
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "{\"id\":%llu,\"ticks\":%zu,\"pending\":%zu,"
                  "\"complete\":%s,\"alert\":%s,\"alert_tick\":%zu,"
                  "\"degraded\":%s,\"dropped_channels\":%zu,"
                  "\"staleness_seconds\":%.6f,\"journal\":[",
                  static_cast<unsigned long long>(snap.id),
                  snap.ticks_assimilated, snap.ticks_pending,
                  snap.complete ? "true" : "false",
                  snap.alert ? "true" : "false", snap.alert_tick,
                  snap.degraded ? "true" : "false", snap.dropped_channels,
                  s->staleness_seconds());
    out += buf;
    bool first_record = true;
    for (const JournalRecord& r : records) {
      if (r.event != snap.id) continue;
      if (!first_record) out += ',';
      first_record = false;
      EventJournal::append_record_json(out, r);
    }
    out += "]}";
  }
  char tail[96];
  std::snprintf(tail, sizeof(tail),
                "],\"journal_appended\":%llu,\"journal_dropped\":%llu}",
                static_cast<unsigned long long>(journal_.appended()),
                static_cast<unsigned long long>(journal_.dropped()));
  out += tail;
  return out;
}

std::shared_ptr<EventSession> WarningService::session(EventId id) const {
  const std::lock_guard<std::mutex> lock(sessions_mutex_);
  auto it = sessions_.find(id);
  if (it == sessions_.end())
    throw std::out_of_range("WarningService: unknown event id");
  return it->second;
}

std::vector<std::shared_ptr<EventSession>> WarningService::open_sessions()
    const {
  std::vector<std::shared_ptr<EventSession>> open;
  const std::lock_guard<std::mutex> lock(sessions_mutex_);
  open.reserve(sessions_.size());
  for (const auto& [_, s] : sessions_) open.push_back(s);
  return open;
}

void WarningService::enqueue_ready(EventSession* s) {
  const std::lock_guard<std::mutex> lock(queue_mutex_);
  if (stopping_) return;
  s->ready_next_ = nullptr;
  (ready_tail_ != nullptr ? ready_tail_->ready_next_ : ready_head_) = s;
  ready_tail_ = s;
  pump_locked();
}

void WarningService::pump_locked() {
  while (!stopping_ && active_drains_ < options_.num_workers &&
         ready_head_ != nullptr) {
    EventSession* s = std::exchange(ready_head_, ready_head_->ready_next_);
    if (ready_head_ == nullptr) ready_tail_ = nullptr;
    ++active_drains_;
    // A raw pointer keeps the capture at 16 bytes, which std::function
    // stores without allocating. The session stays scheduled until the
    // job's drain releases it, and close_event (wait_idle) and the
    // destructor (active_drains_) both wait for that, so it outlives the
    // job. Submitting under queue_mutex_ is fine: the pool's queues are
    // leaves below it, and the job reacquires queue_mutex_ only at its end.
    ThreadPool::global().submit([this, s] { run_drain(s); });
  }
}

void WarningService::run_drain(EventSession* s) {
  // The session arrives with its scheduled flag held (won by the submit that
  // enqueued it), so this job is its sole drainer until release.
  TRACE_SCOPE("service", "drain");
  s->drain(telemetry_);

  const std::lock_guard<std::mutex> lock(queue_mutex_);
  --active_drains_;
  pump_locked();
  if (active_drains_ == 0) drains_cv_.notify_all();
}

}  // namespace tsunami
