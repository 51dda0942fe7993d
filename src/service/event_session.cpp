#include "service/event_session.hpp"

#include <algorithm>
#include <utility>

#include "obs/trace.hpp"

namespace tsunami {

EventSession::EventSession(EventId id,
                           std::shared_ptr<const CachedEngine> engine,
                           const AlertPolicy& alert, std::size_t max_pending,
                           BackpressurePolicy policy, EventJournal* journal)
    : id_(id),
      engine_([&] {
        if (!engine) throw std::invalid_argument("EventSession: null engine");
        return std::move(engine);
      }()),
      alert_(alert),
      max_pending_(max_pending),
      policy_(policy),
      journal_(journal),
      open_ns_(obs::monotonic_ns()),
      assim_(engine_->engine().start()),
      slot_data_(engine_->engine().num_ticks() *
                 engine_->engine().block_size()),
      slot_valid_(slot_data_.size()),
      slots_(engine_->engine().num_ticks()),
      last_publish_ns_(open_ns_) {
  if (max_pending_ == 0)
    throw std::invalid_argument("EventSession: max_pending == 0");
  // Publish the prior as the initial snapshot so latest_forecast is
  // meaningful before the first observation lands.
  latest_forecast_ = assim_.forecast();
  journal_mark(JournalKind::kOpen, 0);
}

void EventSession::journal_mark(JournalKind kind, std::uint64_t tick,
                                std::int64_t duration_ns) {
  if (journal_ == nullptr) return;
  JournalRecord r;
  r.event = id_;
  r.kind = kind;
  r.tick = tick;
  r.t_ns = obs::monotonic_ns();
  r.total_ns = duration_ns;
  journal_->append(r);
}

bool EventSession::submit(std::size_t tick, std::span<const double> d_block,
                          ServiceTelemetry& telemetry) {
  return submit(tick, d_block, {}, telemetry);
}

bool EventSession::submit(std::size_t tick, std::span<const double> d_block,
                          std::span<const std::uint8_t> valid,
                          ServiceTelemetry& telemetry) {
  const StreamingEngine& eng = engine_->engine();
  // Corrupt-block rejection: malformed wire data (impossible tick, wrong
  // block dimension, wrong bitmap dimension) is journaled and refused HERE,
  // at the submit boundary — a corrupt packet must never become a throw out
  // of a drain worker, and must never poison the session's good state.
  if (tick >= eng.num_ticks() || d_block.size() != eng.block_size() ||
      (!valid.empty() && valid.size() != eng.block_size())) {
    telemetry.on_corrupt();
    journal_mark(JournalKind::kReject, tick);
    if (tick >= eng.num_ticks())
      throw std::invalid_argument("EventSession::submit: tick out of range");
    if (d_block.size() != eng.block_size())
      throw std::invalid_argument("EventSession::submit: block size mismatch");
    throw std::invalid_argument("EventSession::submit: bitmap size mismatch");
  }
  // Normalize an all-ones bitmap to "no bitmap": a fully-valid partial
  // submit stays on the healthy fast path and is bitwise-identical to the
  // plain overload.
  if (!valid.empty() &&
      std::all_of(valid.begin(), valid.end(),
                  [](std::uint8_t v) { return v != 0; }))
    valid = {};

  std::unique_lock<std::mutex> lock(state_mutex_);
  if (closing_)
    throw std::logic_error("EventSession::submit: event is closed");
  if (tick < next_expected_ || slots_[tick].buffered)
    throw std::invalid_argument("EventSession::submit: duplicate tick");
  // The next-expected tick is always accepted even when the buffer is full:
  // it is exactly the block whose arrival lets the workers drain the queue,
  // so bouncing it would stall (kBlock: deadlock; kReject: livelock) a
  // session whose buffer filled up with out-of-order future ticks.
  if (tick != next_expected_ && pending_ >= max_pending_) {
    if (policy_ == BackpressurePolicy::kReject) {
      telemetry.on_rejected();
      journal_mark(JournalKind::kBackpressureReject, tick);
      throw ServiceOverloaded("EventSession::submit: ingest queue full");
    }
    // The bypass must be re-evaluated inside the wait: the workers can
    // advance next_expected_ to exactly this tick while we sleep, at which
    // point this block is the only one that can unblock the session and
    // waiting for queue space (which can't free without it) would deadlock.
    // drain() notifies space_cv_ on every advance.
    telemetry.on_blocked();
    const std::int64_t wait_begin = obs::monotonic_ns();
    space_cv_.wait(lock, [&] {
      return closing_ || tick == next_expected_ || pending_ < max_pending_;
    });
    journal_mark(JournalKind::kBackpressureBlock, tick,
                 obs::monotonic_ns() - wait_begin);
    if (closing_)
      throw std::logic_error("EventSession::submit: event is closed");
    if (tick < next_expected_ || slots_[tick].buffered)
      throw std::invalid_argument("EventSession::submit: duplicate tick");
  }
  const std::size_t row = tick * eng.block_size();
  std::copy(d_block.begin(), d_block.end(), slot_data_.begin() + row);
  std::copy(valid.begin(), valid.end(), slot_valid_.begin() + row);
  slots_[tick] = Slot{obs::monotonic_ns(), true, !valid.empty()};
  ++pending_;

  // Schedule iff in-order work just became available and no worker owns the
  // session: exactly one producer wins the flag, so at most one worker ever
  // drains a session at a time (the ordering + determinism invariant).
  if (!runnable_locked()) {
    // The new block is ahead of a gap at next_expected_ — the tick the
    // session is stalled waiting for.
    journal_mark(JournalKind::kReorderStall, next_expected_);
    return false;
  }
  if (scheduled_) return false;
  scheduled_ = true;
  return true;
}

void EventSession::drain(ServiceTelemetry& telemetry) {
  const std::size_t nd = engine_->engine().block_size();
  std::unique_lock<std::mutex> lock(state_mutex_);
  for (;;) {
    // One acquisition per pass: take the queued sensor ops and pop the next
    // in-order block, or release. A submit or set_sensor racing the release
    // either ran before it (and is taken here) or runs after and wins the
    // scheduled flag itself, so no wakeup is lost.
    applying_ops_.swap(mask_ops_);
    const std::size_t tick = next_expected_;
    const bool pop = runnable_locked();
    if (!pop && applying_ops_.empty()) {
      scheduled_ = false;
      idle_cv_.notify_all();
      return;  // the session may be destroyed from here on
    }
    if (pop) {
      ++next_expected_;  // slot `tick` is the owner's from here on
      --pending_;
      space_cv_.notify_all();
    }
    // Ops and push run without any lock: producers keep submitting. Ops
    // land before the block popped with them, never inside a push, and the
    // corrected forecast publishes even when no data is buffered (replayed
    // drop-of-dropped or restore-of-live ops are no-ops in the assimilator).
    lock.unlock();
    for (const MaskOp& op : applying_ops_) {
      if (op.live)
        assim_.restore_sensor(op.sensor);
      else
        assim_.drop_sensor(op.sensor);
    }
    if (!applying_ops_.empty()) publish_forecast_only();
    applying_ops_.clear();
    if (pop) {
      const std::int64_t push_start_ns = obs::monotonic_ns();
      const std::size_t row = tick * nd;
      assim_.push(tick, std::span<const double>(slot_data_).subspan(row, nd),
                  std::span<const std::uint8_t>(slot_valid_)
                      .subspan(row, slots_[tick].lossy ? nd : 0));
      publish_after_push(telemetry, tick, push_start_ns, obs::monotonic_ns());
    }
    lock.lock();
  }
}

bool EventSession::set_sensor(std::size_t s, bool live) {
  const StreamingEngine& eng = engine_->engine();
  if (s >= eng.block_size())
    throw std::out_of_range("EventSession::set_sensor: channel out of range");
  bool owner = false;
  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    if (closing_)
      throw std::logic_error("EventSession::set_sensor: event is closed");
    mask_ops_.push_back(MaskOp{s, live});
    // Idle session: this caller wins the scheduled flag and drains it.
    // Otherwise the owner takes the op at its next pass — drain() never
    // releases past a queued op, so it cannot linger.
    if (!scheduled_) {
      scheduled_ = true;
      owner = true;
    }
  }
  journal_mark(live ? JournalKind::kSensorRestore : JournalKind::kSensorDrop,
               s);
  return owner;
}

void EventSession::publish_forecast_only() {
  assim_.forecast_into(staging_forecast_);
  {
    const std::lock_guard<std::mutex> lock(snapshot_mutex_);
    ticks_assimilated_ = assim_.ticks_received();
    std::swap(latest_forecast_, staging_forecast_);
  }
  // mo: relaxed — staleness gauge timestamp; same contract as the store in
  // publish_after_push.
  last_publish_ns_.store(obs::monotonic_ns(), std::memory_order_relaxed);
}

void EventSession::publish_after_push(ServiceTelemetry& telemetry,
                                      std::size_t tick,
                                      std::int64_t push_start_ns,
                                      std::int64_t push_end_ns) {
  TRACE_SCOPE("service", "publish");
  telemetry.on_push(static_cast<double>(push_end_ns - push_start_ns) * 1e-9);

  assim_.forecast_into(staging_forecast_);
  bool latch = false;
  if (alert_.threshold > 0.0 && !alert_latched_) {
    double peak = 0.0;
    for (double v : staging_forecast_.mean) peak = std::max(peak, v);
    above_threshold_streak_ =
        peak > alert_.threshold ? above_threshold_streak_ + 1 : 0;
    latch = above_threshold_streak_ >= alert_.debounce_ticks;
  }

  std::size_t latched_at = 0;
  {
    const std::lock_guard<std::mutex> lock(snapshot_mutex_);
    ticks_assimilated_ = assim_.ticks_received();
    if (latch) {
      alert_latched_ = true;
      alert_tick_ = ticks_assimilated_;
      latched_at = ticks_assimilated_;
    }
    // Swap, don't move: the retired snapshot's buffers become next tick's
    // staging capacity, so publishing is allocation-free in steady state.
    std::swap(latest_forecast_, staging_forecast_);
  }

  const std::int64_t t_end = obs::monotonic_ns();
  // mo: relaxed — staleness gauge timestamp; scrape readers tolerate any
  // staleness, and the value is a single self-contained int64.
  last_publish_ns_.store(t_end, std::memory_order_relaxed);

  // Journal + SLO samples, outside the snapshot lock (journal appends are
  // lock-free, histogram records are wait-free).
  if (!first_publish_done_) {
    first_publish_done_ = true;
    telemetry.on_first_forecast(static_cast<double>(t_end - open_ns_) * 1e-9);
  }
  if (latch) {
    // Lead time: how much of the event timeline (in data time) was still
    // ahead when the alert latched.
    const StreamingEngine& eng = engine_->engine();
    const double dt = engine_->twin().config().observation_dt;
    const double lead =
        static_cast<double>(eng.num_ticks() - latched_at) * dt;
    telemetry.on_alert_lead(lead);
    journal_mark(JournalKind::kAlertLatch, latched_at);
  }
  if (journal_ != nullptr) {
    JournalRecord r;
    r.event = id_;
    r.kind = assim_.ticks_received() == 1 ? JournalKind::kFirstTick
                                          : JournalKind::kPush;
    r.tick = tick;
    r.t_ns = t_end;
    // The budget decomposition: queue wait (enqueue -> push start), the
    // push (push start -> push end) and the publish (push end -> t_end).
    // The stages share their boundary stamps, so they sum to total_ns.
    r.queue_wait_ns = push_start_ns - slots_[tick].enqueue_ns;
    r.push_ns = push_end_ns - push_start_ns;
    r.publish_ns = t_end - push_end_ns;
    r.total_ns = t_end - slots_[tick].enqueue_ns;
    journal_->append(r);
  }
}

void EventSession::begin_close() {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  closing_ = true;
  space_cv_.notify_all();
}

void EventSession::wait_idle() {
  std::unique_lock<std::mutex> lock(state_mutex_);
  idle_cv_.wait(lock, [&] { return !scheduled_; });
}

double EventSession::staleness_seconds() const {
  // mo: relaxed — reading the publish timestamp for a monitoring gauge; a
  // stale read only overstates staleness by one publish.
  const std::int64_t last = last_publish_ns_.load(std::memory_order_relaxed);
  return static_cast<double>(obs::monotonic_ns() - last) * 1e-9;
}

EventSnapshot EventSession::snapshot() const {
  EventSnapshot s;
  s.id = id_;
  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    s.ticks_pending = pending_;
    s.closing = closing_;
  }
  {
    const std::lock_guard<std::mutex> lock(snapshot_mutex_);
    s.ticks_assimilated = ticks_assimilated_;
    s.alert = alert_latched_;
    s.alert_tick = alert_tick_;
    s.forecast = latest_forecast_;
  }
  s.degraded = s.forecast.degraded;
  s.dropped_channels = s.forecast.dropped_channels;
  s.complete = s.ticks_assimilated == engine_->engine().num_ticks();
  return s;
}

std::pair<bool, std::size_t> EventSession::degraded_state() const {
  const std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return {latest_forecast_.degraded, latest_forecast_.dropped_channels};
}

}  // namespace tsunami
