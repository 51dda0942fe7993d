#pragma once

// EventSession: the per-event half of the warning service.
//
// One session wraps one StreamingAssimilator (cheap, a few vectors of
// per-event state) over a shared CachedEngine (the expensive, immutable
// per-network slabs). Around the assimilator it adds what a live feed
// needs and the library layer deliberately does not have:
//
//   * an ingest queue of (tick, d_block) observations with per-session
//     REORDERING — packets from a seafloor cable arrive out of order, but
//     the prefix-Cholesky update is order-dependent, so blocks are buffered
//     until the next expected tick is available and assimilated strictly
//     in tick order (which is also what makes a concurrent replay
//     bit-identical to a serial one). Ticks lie in [0, Nt) and each is
//     accepted once, so the buffer is one preallocated slot per tick: a
//     submit copies its block in and allocates nothing;
//   * a BOUNDED queue with a backpressure policy: block the producer
//     (deployment default — the transport should feel the stall) or reject
//     with ServiceOverloaded (load-shedding);
//   * a debounced ALERT latch (peak forecast mean above threshold for K
//     consecutive ticks, the examples' warning-center rule);
//   * a mutex-guarded SNAPSHOT of the latest forecast + alert state, so
//     operator dashboards read without touching assimilator internals;
//   * an optional lifecycle JOURNAL (EventJournal, owned by the service):
//     every block is stamped at enqueue, and each publish emits a record
//     decomposing enqueue->published into queue-wait / push / publish, plus
//     records for reorder stalls, backpressure, alert latch, and close.
//
// Threading contract: any number of producer threads may call submit();
// at most one thread at a time owns the session (enforced by the
// scheduled-flag protocol: won by submit() or set_sensor() returning true).
// The owner runs drain(), which returns once it has released the session
// and touches the session no more after that release (so whoever waits in
// wait_idle() may destroy it); snapshot()/wait_idle() are safe from
// anywhere.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/forecast.hpp"
#include "service/engine_cache.hpp"
#include "service/event_journal.hpp"
#include "service/service_telemetry.hpp"

namespace tsunami {

using EventId = std::uint64_t;

/// What submit() does when a session's ingest queue is full.
enum class BackpressurePolicy {
  kBlock,   ///< producer waits for the workers to catch up (default)
  kReject,  ///< submit throws ServiceOverloaded; the tick is dropped
};

/// Thrown by submit() under BackpressurePolicy::kReject on a full queue.
struct ServiceOverloaded : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Debounced warning rule: latch an alert once the peak forecast mean has
/// exceeded `threshold` for `debounce_ticks` consecutive ticks.
/// threshold <= 0 disables alerting.
struct AlertPolicy {
  double threshold = 0.0;
  std::size_t debounce_ticks = 2;
};

/// Point-in-time public state of one event session.
struct EventSnapshot {
  EventId id = 0;
  std::size_t ticks_assimilated = 0;
  std::size_t ticks_pending = 0;  ///< buffered, not yet assimilated
  bool complete = false;          ///< all Nt intervals assimilated
  bool closing = false;
  bool degraded = false;  ///< forecast is over a reduced sensor network
  std::size_t dropped_channels = 0;  ///< currently masked channels
  bool alert = false;
  /// Intervals assimilated when the alert latched (alert_tick * dt is the
  /// alert time in data time). Meaningful only when `alert`.
  std::size_t alert_tick = 0;
  Forecast forecast;  ///< latest rolling forecast (prior if no data yet)
};

class EventSession {
 public:
  /// `journal` is optional (may be null) and must outlive the session; the
  /// WarningService passes its own. Constructing a session emits kOpen.
  EventSession(EventId id, std::shared_ptr<const CachedEngine> engine,
               const AlertPolicy& alert, std::size_t max_pending,
               BackpressurePolicy policy, EventJournal* journal = nullptr);

  EventSession(const EventSession&) = delete;
  EventSession& operator=(const EventSession&) = delete;

  /// Buffer observation interval `tick`. Ticks may arrive in any order;
  /// duplicates (buffered or already assimilated) and ticks outside
  /// [0, Nt) throw std::invalid_argument, submits after begin_close()
  /// throw std::logic_error. Returns true iff the caller must schedule
  /// this session on a worker (in-order work became available and no
  /// worker currently owns the session).
  [[nodiscard]] bool submit(std::size_t tick, std::span<const double> d_block,
                            ServiceTelemetry& telemetry);

  /// Partial-tick submit: `valid[c] == 0` marks channel c of this block as
  /// lost on the wire (the assimilator projects it out exactly — see
  /// StreamingAssimilator's degraded-mode contract). `valid` must be empty
  /// (all channels present) or exactly block-size long; an all-ones bitmap
  /// is normalized to empty so fully-valid partial submits stay on the
  /// bitwise-identical healthy fast path. A block whose dimensions disagree
  /// with the network (data OR bitmap) is journaled as kReject, counted in
  /// telemetry, and refused with std::invalid_argument — at the submit
  /// boundary, never out of a drain worker.
  [[nodiscard]] bool submit(std::size_t tick, std::span<const double> d_block,
                            std::span<const std::uint8_t> valid,
                            ServiceTelemetry& telemetry);

  /// Control plane: drop (live == false) or restore (live == true) sensor
  /// channel `s` for this event, mid-stream. Journals kSensorDrop /
  /// kSensorRestore immediately; the mask change itself is applied by
  /// whichever thread owns the session, at the drain loop head (so the op
  /// never races a push). Returns true iff the session was idle and this
  /// caller won its scheduled flag: the caller must then drain it, which
  /// applies the op, republishes the corrected forecast and drains any
  /// backlog.
  [[nodiscard]] bool set_sensor(std::size_t s, bool live);

  /// The one drain routine; the caller must own the session (submit or
  /// set_sensor returned true). Each pass takes state_mutex_ once: it takes
  /// the queued sensor ops and pops the next in-order block, or, with
  /// neither left, releases the session and returns. Outside the lock the
  /// pass applies the ops (and republishes), then pushes the block through
  /// the assimilator and publishes. Blocks land in strict tick order
  /// through the same FP operations as a serial replay. A steady-state pass
  /// allocates nothing: its scratch is per-session and reused.
  void drain(ServiceTelemetry& telemetry);

  /// Refuse further submits (and wake producers blocked on backpressure,
  /// who then see the session closing and throw).
  void begin_close();

  /// Block until no worker owns the session and no in-order work remains.
  /// Buffered blocks beyond a tick gap stay pending (they can never be
  /// assimilated without the missing tick) and are reported in the
  /// snapshot rather than waited on.
  void wait_idle();

  [[nodiscard]] EventSnapshot snapshot() const;

  /// Cheap (no Forecast copy) degraded view for the /metrics scrape:
  /// {degraded, dropped_channels} of the latest published forecast.
  [[nodiscard]] std::pair<bool, std::size_t> degraded_state() const;

  /// Seconds since this session last published a forecast (since open if it
  /// never has). The per-session staleness gauge of the /metrics export.
  [[nodiscard]] double staleness_seconds() const;

  [[nodiscard]] EventId id() const { return id_; }

 private:
  /// WarningService journals closes.
  friend class WarningService;

  /// One tick's ingest slot; its block is row `tick` of slot_data_ (and,
  /// when lossy, of slot_valid_). Ticks below next_expected_ are popped.
  struct Slot {
    std::int64_t enqueue_ns = 0;  ///< obs::monotonic_ns() when buffered
    bool buffered = false;        ///< submitted
    bool lossy = false;  ///< has a validity bitmap (else: every channel)
  };

  /// One queued sensor control op (set_sensor). Guarded by state_mutex_;
  /// applied in submission order by the session owner, so a drop/restore
  /// pair queued while a worker drains lands between pushes, never inside
  /// one.
  struct MaskOp {
    std::size_t sensor;
    bool live;
  };

  /// The next in-order tick is buffered. Called under state_mutex_.
  [[nodiscard]] bool runnable_locked() const {
    return next_expected_ < slots_.size() && slots_[next_expected_].buffered;
  }

  /// Owner only: refresh the published snapshot from the assimilator's
  /// current state without a push — no telemetry sample, no budget journal
  /// record (control events journal their own kind). Used after sensor
  /// drop/restore.
  void publish_forecast_only();

  /// Publish after the push of `tick`, which ran from `push_start_ns` to
  /// `push_end_ns` (the publish starts at the end stamp): telemetry sample,
  /// rolling forecast, alert latch, snapshot swap, journal record. Owner
  /// only.
  void publish_after_push(ServiceTelemetry& telemetry, std::size_t tick,
                          std::int64_t push_start_ns, std::int64_t push_end_ns);

  /// Append a non-budget lifecycle record (open/stall/backpressure/close)
  /// if a journal is attached. Any thread; lock- and allocation-free.
  void journal_mark(JournalKind kind, std::uint64_t tick,
                    std::int64_t duration_ns = 0);

  const EventId id_;
  const std::shared_ptr<const CachedEngine> engine_;  ///< shared, immutable
  const AlertPolicy alert_;
  const std::size_t max_pending_;
  const BackpressurePolicy policy_;
  EventJournal* const journal_;     ///< nullable; owned by the service
  const std::int64_t open_ns_;      ///< obs::monotonic_ns() at construction

  // Assimilator + alert streak + forecast staging: touched only by the
  // owning worker (one at a time, enforced by the scheduled_ handoff). The
  // staging Forecast is filled via forecast_into and swapped with the
  // published snapshot under snapshot_mutex_, so the per-tick publish path
  // reuses both buffers and never allocates in steady state.
  StreamingAssimilator assim_;
  std::size_t above_threshold_streak_ = 0;
  Forecast staging_forecast_;
  std::vector<MaskOp> applying_ops_;  ///< ops drain() took, being applied
  bool first_publish_done_ = false;

  // Block payloads, one row of block_size() per tick: row t (and slots_[t])
  // is written under state_mutex_ by the one submit that buffers tick t and
  // read without the lock by the owner once drain() pops it, since the pop
  // moves next_expected_ past t and no later submit can touch the row.
  std::vector<double> slot_data_;
  std::vector<std::uint8_t> slot_valid_;

  // Ingest queue + scheduling state, guarded by state_mutex_.
  mutable std::mutex state_mutex_;
  std::condition_variable space_cv_;  ///< backpressure waiters
  std::condition_variable idle_cv_;   ///< wait_idle waiters
  std::vector<Slot> slots_;        ///< one per tick in [0, Nt)
  std::size_t pending_ = 0;        ///< buffered, not yet popped
  std::vector<MaskOp> mask_ops_;   ///< queued sensor drops/restores
  std::size_t next_expected_ = 0;  ///< next tick the assimilator must see
  bool scheduled_ = false;         ///< a worker owns (or is queued for) this
  bool closing_ = false;

  // Published state, guarded by snapshot_mutex_ (never held together with
  // state_mutex_).
  mutable std::mutex snapshot_mutex_;
  std::size_t ticks_assimilated_ = 0;
  bool alert_latched_ = false;
  std::size_t alert_tick_ = 0;
  Forecast latest_forecast_;

  /// When the latest forecast was published (open time before any publish),
  /// read lock-free by staleness_seconds() from scrape threads.
  std::atomic<std::int64_t> last_publish_ns_;

  /// Next session in the WarningService's ready queue (its queue_mutex_).
  EventSession* ready_next_ = nullptr;
};

}  // namespace tsunami
