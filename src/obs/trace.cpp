#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

namespace tsunami::obs {

namespace detail {
std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

namespace {

constexpr std::size_t kMinCapacity = 64;
constexpr std::size_t kMaxCapacity = std::size_t{1} << 22;
constexpr std::size_t kDefaultCapacity = 8192;

std::atomic<std::size_t> g_buffer_capacity{kDefaultCapacity};

/// One retained span. Every field is a relaxed atomic: the writer thread is
/// the only mutator, but the exporter reads concurrently from another
/// thread — per-field atomicity makes that read well-defined (at worst a
/// wrapped slot mixes two spans' fields in the diagnostic output) and keeps
/// TSan silent without a lock on the record path.
struct Slot {
  std::atomic<std::int64_t> ts_ns{0};
  std::atomic<std::int64_t> dur_ns{0};
  std::atomic<const char*> category{nullptr};
  std::atomic<const char*> name{nullptr};
};

/// Single-writer span ring of one thread. Owned jointly by the thread (its
/// thread_local handle) and the global registry, so the ring survives thread
/// exit and still appears in a later export.
struct TraceBuffer {
  explicit TraceBuffer(std::uint32_t tid_, std::size_t capacity_)
      : tid(tid_), capacity(capacity_), slots(new Slot[capacity_]) {}

  void record(const char* category, const char* name, std::int64_t t0,
              std::int64_t dur) {
    // mo: relaxed — single-writer ring (this thread is the only mutator);
    // the atomics exist so the exporter's concurrent reads are well-defined,
    // not to order publication. A garbled wrapped slot in a diagnostic dump
    // is the accepted worst case (see the Slot comment).
    const std::uint64_t p = pos.load(std::memory_order_relaxed);
    Slot& s = slots[p % capacity];
    s.ts_ns.store(t0, std::memory_order_relaxed);
    s.dur_ns.store(dur, std::memory_order_relaxed);
    s.category.store(category, std::memory_order_relaxed);
    // mo: relaxed — same single-writer-ring contract as above.
    s.name.store(name, std::memory_order_relaxed);
    pos.store(p + 1, std::memory_order_relaxed);
  }

  const std::uint32_t tid;
  const std::size_t capacity;
  const std::unique_ptr<Slot[]> slots;
  std::atomic<std::uint64_t> pos{0};  ///< spans ever recorded
  std::mutex name_mutex;
  std::string thread_name;  ///< guarded by name_mutex
};

/// Registry of every thread's ring. Leaky singleton: never destroyed, so the
/// TSUNAMI_TRACE at-exit export (and thread_local destructors of late-dying
/// threads) can never touch a dead registry.
struct Registry {
  std::mutex mutex;
  std::vector<std::shared_ptr<TraceBuffer>> buffers;
  std::uint32_t next_tid = 1;
};

Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

struct TlsHandle {
  std::shared_ptr<TraceBuffer> buffer;
  std::string pending_name;  ///< set_thread_name before first record
};

TlsHandle& tls_handle() {
  thread_local TlsHandle h;
  return h;
}

TraceBuffer& thread_buffer() {
  TlsHandle& h = tls_handle();
  if (!h.buffer) {
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    h.buffer = std::make_shared<TraceBuffer>(
        // mo: relaxed — a plain configuration scalar; whichever capacity
        // value this thread observes is a valid ring size.
        r.next_tid++, g_buffer_capacity.load(std::memory_order_relaxed));
    if (!h.pending_name.empty()) h.buffer->thread_name = h.pending_name;
    r.buffers.push_back(h.buffer);
  }
  return *h.buffer;
}

std::int64_t epoch_ns() {
  static const std::int64_t epoch =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  return epoch;
}

void append_json_escaped(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
}

/// TSUNAMI_TRACE=path: enable at startup, export at exit. A namespace-scope
/// initializer so tracing is live before main() without any check on the
/// record path; the epoch is pinned here too so early spans have small
/// timestamps.
struct TraceBoot {
  TraceBoot() {
    (void)epoch_ns();
    const char* cap = std::getenv("TSUNAMI_TRACE_RING");
    if (cap != nullptr && *cap != '\0') {
      char* end = nullptr;
      const long v = std::strtol(cap, &end, 10);
      if (end != cap && v > 0)
        set_trace_buffer_capacity(static_cast<std::size_t>(v));
    }
    const char* path = std::getenv("TSUNAMI_TRACE");
    if (path != nullptr && *path != '\0') {
      exit_path() = path;
      set_trace_enabled(true);
      std::atexit([] {
        if (write_chrome_trace(exit_path())) {
          std::fprintf(stderr, "[obs] wrote trace to %s (%zu spans%s)\n",
                       exit_path().c_str(), trace_span_count(),
                       trace_dropped_count() != 0 ? ", ring wrapped" : "");
        } else {
          std::fprintf(stderr, "[obs] could not write trace to %s\n",
                       exit_path().c_str());
        }
      });
    }
  }

  static std::string& exit_path() {
    static std::string* p = new std::string;
    return *p;
  }
};

const TraceBoot g_trace_boot;

}  // namespace

namespace detail {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
             .count() -
         epoch_ns();
}

void record_span(const char* category, const char* name, std::int64_t t0_ns,
                 std::int64_t t1_ns) {
  thread_buffer().record(category, name, t0_ns,
                         std::max<std::int64_t>(0, t1_ns - t0_ns));
}

}  // namespace detail

void set_trace_enabled(bool enabled) {
  // mo: relaxed — a flag hot paths poll; threads may see the toggle late,
  // which only shifts where a diagnostic trace starts/stops.
  detail::g_trace_enabled.store(enabled, std::memory_order_relaxed);
}

void set_trace_buffer_capacity(std::size_t spans) {
  // mo: relaxed — configuration scalar read once per thread at ring
  // creation; no memory is published through it.
  g_buffer_capacity.store(std::clamp(spans, kMinCapacity, kMaxCapacity),
                          std::memory_order_relaxed);
}

std::size_t trace_buffer_capacity() {
  // mo: relaxed — same configuration-scalar contract as the setter.
  return g_buffer_capacity.load(std::memory_order_relaxed);
}

void set_thread_name(const std::string& name) {
  TlsHandle& h = tls_handle();
  if (h.buffer) {
    const std::lock_guard<std::mutex> lock(h.buffer->name_mutex);
    h.buffer->thread_name = name;
  } else {
    h.pending_name = name;
  }
}

std::size_t trace_span_count() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  std::size_t n = 0;
  // mo: relaxed — cross-thread diagnostic read of a single-writer counter;
  // an in-flight record() may or may not be counted, both are fine.
  for (const auto& b : r.buffers)
    n += static_cast<std::size_t>(std::min<std::uint64_t>(
        b->pos.load(std::memory_order_relaxed), b->capacity));
  return n;
}

std::size_t trace_dropped_count() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  std::size_t n = 0;
  for (const auto& b : r.buffers) {
    // mo: relaxed — same diagnostic-read contract as trace_span_count().
    const std::uint64_t pos = b->pos.load(std::memory_order_relaxed);
    if (pos > b->capacity) n += static_cast<std::size_t>(pos - b->capacity);
  }
  return n;
}

void clear_trace() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  // Dropping the count (not the slots) is enough: retained = min(pos, cap)
  // and the exporter only reads slots below pos.
  // mo: relaxed — racing writers may resurrect a span or two; clear_trace
  // is a test/bench convenience, not a synchronization point.
  for (const auto& b : r.buffers) b->pos.store(0, std::memory_order_relaxed);
}

std::string chrome_trace_json() {
  // Snapshot the buffer list, then walk rings without the registry lock
  // (rings are immutable in shape; writers may append concurrently, which at
  // worst garbles individual wrapped slots).
  std::vector<std::shared_ptr<TraceBuffer>> buffers;
  {
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    buffers = r.buffers;
  }

  std::string out = "{\"traceEvents\":[";
  bool first = true;
  char num[96];
  for (const auto& b : buffers) {
    std::string tname;
    {
      const std::lock_guard<std::mutex> lock(b->name_mutex);
      tname = b->thread_name;
    }
    if (!tname.empty()) {
      out += first ? "\n" : ",\n";
      first = false;
      out += "{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(b->tid) +
             ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
      append_json_escaped(out, tname.c_str());
      out += "\"}}";
    }
    // mo: relaxed — exporter side of the single-writer ring contract: reads
    // racing record() may mix two spans' fields in one wrapped slot, which
    // the format tolerates (diagnostic artifact, never UB; see Slot).
    const std::uint64_t pos = b->pos.load(std::memory_order_relaxed);
    const std::uint64_t begin = pos > b->capacity ? pos - b->capacity : 0;
    for (std::uint64_t i = begin; i < pos; ++i) {
      const Slot& s = b->slots[i % b->capacity];
      const char* cat = s.category.load(std::memory_order_relaxed);
      const char* name = s.name.load(std::memory_order_relaxed);
      if (cat == nullptr || name == nullptr) continue;  // not yet written
      // mo: relaxed — same slot-read contract as the loads above.
      const std::int64_t ts = s.ts_ns.load(std::memory_order_relaxed);
      const std::int64_t dur = s.dur_ns.load(std::memory_order_relaxed);
      out += first ? "\n" : ",\n";
      first = false;
      out += "{\"pid\":1,\"tid\":" + std::to_string(b->tid) + ",\"cat\":\"";
      append_json_escaped(out, cat);
      out += "\",\"name\":\"";
      append_json_escaped(out, name);
      // Chrome trace timestamps are microseconds; keep ns resolution via the
      // fractional part.
      std::snprintf(num, sizeof(num), "\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f}",
                    static_cast<double>(ts) / 1e3,
                    static_cast<double>(dur) / 1e3);
      out += num;
    }
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

bool write_chrome_trace(const std::string& path) {
  const std::string json = chrome_trace_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace tsunami::obs
