#include "service/event_journal.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <new>
#include <type_traits>

namespace tsunami {

namespace {

constexpr std::size_t kMinCapacity = 64;

template <class T>
void put(T& field, T value) {
  const std::atomic_ref<T> cell(field);
  // mo: relaxed — field stores need no individual ordering; the seq release
  // store in append() publishes them all to acquire readers at once.
  cell.store(value, std::memory_order_relaxed);
}

template <class T>
T get(T& field) {
  const std::atomic_ref<T> cell(field);
  // mo: relaxed — covered by the acquire on seq in snapshot(): a matching
  // seq guarantees these loads read the complete record.
  return cell.load(std::memory_order_relaxed);
}

}  // namespace

/// Plain integers, so the zero bytes of a fresh mapping are a valid
/// never-written slot (seq 0) with no constructor pass; every access goes
/// through std::atomic_ref, so the exporter's concurrent reads of a slot
/// being rewritten are well-defined (same contract as the trace ring's
/// Slot). `seq` is the reservation index + 1, stored last with release: a
/// reader that observes seq == pos + 1 (acquire) also observes every field
/// store that preceded the publish.
struct EventJournal::Slot {
  std::uint64_t seq;  ///< 0 = never written
  std::uint64_t event;
  std::uint8_t kind;
  std::uint64_t tick;
  std::int64_t t_ns;
  std::int64_t queue_wait_ns;
  std::int64_t push_ns;
  std::int64_t publish_ns;
  std::int64_t total_ns;
};

const char* journal_kind_name(JournalKind kind) {
  switch (kind) {
    case JournalKind::kOpen: return "open";
    case JournalKind::kFirstTick: return "first_tick";
    case JournalKind::kPush: return "push";
    case JournalKind::kReorderStall: return "reorder_stall";
    case JournalKind::kBackpressureBlock: return "backpressure_block";
    case JournalKind::kBackpressureReject: return "backpressure_reject";
    case JournalKind::kAlertLatch: return "alert_latch";
    case JournalKind::kAlertUnlatch: return "alert_unlatch";
    case JournalKind::kClose: return "close";
    case JournalKind::kSensorDrop: return "sensor_drop";
    case JournalKind::kSensorRestore: return "sensor_restore";
    case JournalKind::kReject: return "reject";
  }
  return "unknown";
}

EventJournal::EventJournal(std::size_t capacity)
    : capacity_(std::max(capacity, kMinCapacity)) {
  static_assert(std::is_trivially_default_constructible_v<Slot> &&
                    std::is_trivially_destructible_v<Slot>,
                "a zero-filled page must hold valid slots");
  if (capacity_ > std::numeric_limits<std::size_t>::max() / sizeof(Slot))
    throw std::bad_array_new_length();
  // Anonymous private pages read as zero until first written, so mapping
  // the ring writes nothing: each page is faulted in by the first append
  // that lands on it. The heap would hand back recycled pages that need a
  // zeroing pass first.
  void* p = ::mmap(nullptr, capacity_ * sizeof(Slot), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  slots_ = static_cast<Slot*>(p);
}

EventJournal::~EventJournal() { ::munmap(slots_, capacity_ * sizeof(Slot)); }

void EventJournal::append(const JournalRecord& record) {
  // mo: relaxed fetch_add — slot reservation only needs a unique index per
  // writer; the record itself is published by the release store below.
  const std::uint64_t pos = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& s = slots_[pos % capacity_];
  put(s.event, record.event);
  put(s.kind, static_cast<std::uint8_t>(record.kind));
  put(s.tick, record.tick);
  put(s.t_ns, record.t_ns);
  put(s.queue_wait_ns, record.queue_wait_ns);
  put(s.push_ns, record.push_ns);
  put(s.publish_ns, record.publish_ns);
  put(s.total_ns, record.total_ns);
  const std::atomic_ref<std::uint64_t> seq(s.seq);
  // mo: release — publishes the fields above; a reader that observes this
  // seq with acquire sees a complete record.
  seq.store(pos + 1, std::memory_order_release);
}

std::uint64_t EventJournal::appended() const {
  // mo: relaxed — monitoring read of a monotone counter.
  return head_.load(std::memory_order_relaxed);
}

std::uint64_t EventJournal::dropped() const {
  // mo: relaxed — same monitoring-read contract as appended().
  const std::uint64_t n = head_.load(std::memory_order_relaxed);
  return n > capacity_ ? n - capacity_ : 0;
}

std::vector<JournalRecord> EventJournal::snapshot() const {
  // mo: relaxed — a point-in-time high-water mark; records appended after
  // this load are simply not in the snapshot.
  const std::uint64_t head = head_.load(std::memory_order_relaxed);
  const std::uint64_t begin = head > capacity_ ? head - capacity_ : 0;
  std::vector<JournalRecord> out;
  out.reserve(static_cast<std::size_t>(head - begin));
  for (std::uint64_t pos = begin; pos < head; ++pos) {
    Slot& s = slots_[pos % capacity_];
    const std::atomic_ref<std::uint64_t> seq(s.seq);
    // mo: acquire — pairs with append()'s release publish; a matching seq
    // guarantees the field loads below read the complete record.
    if (seq.load(std::memory_order_acquire) != pos + 1)
      continue;  // reserved but unpublished, or already overwritten
    JournalRecord r;
    r.event = get(s.event);
    r.kind = static_cast<JournalKind>(get(s.kind));
    r.tick = get(s.tick);
    r.t_ns = get(s.t_ns);
    r.queue_wait_ns = get(s.queue_wait_ns);
    r.push_ns = get(s.push_ns);
    r.publish_ns = get(s.publish_ns);
    r.total_ns = get(s.total_ns);
    out.push_back(r);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const JournalRecord& a, const JournalRecord& b) {
                     return a.t_ns < b.t_ns;
                   });
  return out;
}

void EventJournal::append_record_json(std::string& out,
                                      const JournalRecord& r) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"event\":%" PRIu64 ",\"kind\":\"%s\",\"tick\":%" PRIu64
                ",\"t_ns\":%" PRId64 ",\"queue_wait_ns\":%" PRId64
                ",\"push_ns\":%" PRId64 ",\"publish_ns\":%" PRId64
                ",\"total_ns\":%" PRId64 "}",
                r.event, journal_kind_name(r.kind), r.tick, r.t_ns,
                r.queue_wait_ns, r.push_ns, r.publish_ns, r.total_ns);
  out += buf;
}

std::string EventJournal::json_lines() const {
  std::string out;
  for (const JournalRecord& r : snapshot()) {
    append_record_json(out, r);
    out += '\n';
  }
  return out;
}

}  // namespace tsunami
