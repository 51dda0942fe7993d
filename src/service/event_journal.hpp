#pragma once

// EventJournal: a structured per-event lifecycle journal for the warning
// service.
//
// The flight recorder (src/obs/trace.hpp) answers "what was every thread
// doing"; the metrics histograms answer "what does the latency distribution
// look like". Neither answers the question an operator asks during a live
// event: "where did THIS event's tick->alert latency go?" The journal does:
// every lifecycle transition of every session — open, first tick, reorder
// stalls, backpressure rejects and blocks, per-tick pushes, alert latch,
// close — lands here as one fixed-size record, and the per-tick records
// carry a DECOMPOSED latency budget measured from the block's enqueue
// timestamp:
//
//   queue_wait_ns   submit() buffered the block  ->  a drain job popped it
//   push_ns         the prefix-Cholesky assimilation itself
//   publish_ns      forecast_into + alert latch + snapshot swap
//   total_ns        enqueue -> publish done (end-to-end as the feed sees it)
//
// The drain stamps the push's start and end on this one clock, and the end
// stamp opens the publish, so queue_wait + push + publish equals total
// exactly (asserted in tests/test_service.cpp and by CI on a replay's
// journal). A slow event is attributable at a glance: queue-bound (drain
// starvation), compute-bound (push), or publish-bound (snapshot
// contention).
//
// Threading contract — why appends are safe on the drain hot path: the
// journal is one bounded ring of plain-integer slots, every field of which
// is read and written through std::atomic_ref. A writer reserves a slot
// with one fetch_add (multi-writer safe, wait-free), fills the record's
// fields with relaxed stores, and publishes the slot's sequence number with
// a release store; no lock is taken and nothing is allocated (armed
// ScopedNoAlloc/ScopedNoLock sentinels prove it in tests/test_debug.cpp).
// Readers (the /events route, the JSON Lines export) accept only slots whose
// published sequence matches the reservation; a reader racing a wrapping
// writer may skip or garble that one slot — a diagnostic artifact, never UB,
// the same tolerance the trace ring documents. Oldest records are
// overwritten first; dropped() reports how many.
//
// The ring's storage is an anonymous mapping of zero pages, so a slot that
// was never written reads seq 0 without a constructor pass, and a slot's
// first write is its only write: a service that appends a few hundred
// records touches a few pages of a ring sized for tens of thousands.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/hot_path.hpp"

namespace tsunami {

/// Lifecycle transition kinds, in the order a healthy event emits them.
enum class JournalKind : std::uint8_t {
  kOpen = 0,                ///< session registered with the service
  kFirstTick = 1,           ///< first block assimilated (budget attached)
  kPush = 2,                ///< one further block assimilated (budget attached)
  kReorderStall = 3,        ///< out-of-order block buffered; tick = the gap
  kBackpressureBlock = 4,   ///< producer stalled on a full queue (kBlock)
  kBackpressureReject = 5,  ///< submit shed on a full queue (kReject)
  kAlertLatch = 6,          ///< debounced alert latched at `tick`
  kAlertUnlatch = 7,        ///< reserved: the current policy never unlatches
  kClose = 8,               ///< session closed; tick = ticks assimilated
  kSensorDrop = 9,          ///< channel masked out; tick = channel index
  kSensorRestore = 10,      ///< channel re-admitted; tick = channel index
  kReject = 11,             ///< corrupt block refused; tick = offending tick
};

/// Stable lowercase name for a kind ("open", "push", ...): the `kind` field
/// of the JSON Lines export and the /events route.
[[nodiscard]] const char* journal_kind_name(JournalKind kind);

/// One journal record. Plain data; timestamps share the flight recorder's
/// monotonic epoch (obs::monotonic_ns) so journal rows line up with /tracez
/// spans. Latency-budget fields are meaningful on kFirstTick/kPush (and
/// total_ns doubles as the wait duration on kBackpressureBlock); they are 0
/// elsewhere.
struct JournalRecord {
  std::uint64_t event = 0;  ///< EventId
  JournalKind kind = JournalKind::kOpen;
  std::uint64_t tick = 0;       ///< tick the record refers to (see kinds)
  std::int64_t t_ns = 0;        ///< when the transition completed
  std::int64_t queue_wait_ns = 0;
  std::int64_t push_ns = 0;
  std::int64_t publish_ns = 0;
  std::int64_t total_ns = 0;
};

/// Bounded multi-writer lifecycle journal (see the header comment for the
/// full design rationale and threading contract).
class EventJournal {
 public:
  /// `capacity` is the number of retained records (clamped to >= 64). The
  /// ring is mapped once here and its pages are first touched by the
  /// appends that land on them; append() never allocates.
  explicit EventJournal(std::size_t capacity = 1 << 16);
  ~EventJournal();  ///< unmaps the ring

  EventJournal(const EventJournal&) = delete;
  EventJournal& operator=(const EventJournal&) = delete;

  /// Append one record. Wait-free and allocation-free: one fetch_add slot
  /// reservation + relaxed field stores + one release publish. Any thread.
  TSUNAMI_HOT_PATH void append(const JournalRecord& record);

  /// Records ever appended (including overwritten ones).
  [[nodiscard]] std::uint64_t appended() const;
  /// Records overwritten by ring wrap — nonzero means snapshot() is a
  /// suffix of the history, not the whole history.
  [[nodiscard]] std::uint64_t dropped() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Point-in-time copy of the retained records, ordered by timestamp.
  /// Slots mid-write (a racing append) are skipped.
  [[nodiscard]] std::vector<JournalRecord> snapshot() const;

  /// The retained records as JSON Lines, one object per record:
  ///   {"event":3,"kind":"push","tick":7,"t_ns":...,"queue_wait_ns":...,
  ///    "push_ns":...,"publish_ns":...,"total_ns":...}
  [[nodiscard]] std::string json_lines() const;

  /// One record serialized as a JSON object (shared by json_lines and the
  /// /events route).
  static void append_record_json(std::string& out, const JournalRecord& r);

 private:
  struct Slot;
  const std::size_t capacity_;
  Slot* slots_ = nullptr;  ///< capacity_ slots of zero-page mapping
  std::atomic<std::uint64_t> head_{0};  ///< next reservation index
};

}  // namespace tsunami
