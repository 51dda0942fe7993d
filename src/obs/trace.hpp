#pragma once

// Flight-recorder tracing: per-thread span ring buffers + Chrome trace export.
//
// The paper's credibility rests on per-phase wall-clock measurement (Table I /
// Table III); the serving layer's on p99 push latency. Both answer "how long",
// neither answers "WHY was this push slow — what was the pool doing, which
// drain batch was in flight, which kernel phase ate the time?" This module
// answers that question the way a flight recorder does: every thread owns a
// fixed-size ring of completed spans (category, name, begin/end timestamps),
// written lock-free and overwritten oldest-first, exported on demand (or at
// process exit via TSUNAMI_TRACE=path) as Chrome trace-event JSON that loads
// directly in Perfetto / chrome://tracing.
//
// Cost model — the reason this can instrument the push hot path:
//   * disabled (default): TRACE_SCOPE is one relaxed atomic load per scope
//     (trace_enabled() in the constructor) and a predictable null check in
//     the destructor; no clock read, no allocation, no shared store.
//     twinbench's untraced runs (--trace 0), whose end-to-end metrics
//     BENCHMARK.json bounds, guard this cost.
//   * enabled: two steady_clock reads plus four relaxed atomic stores into a
//     thread-private slot (~40 ns) — negligible against the >= µs spans the
//     instrumentation marks.
//   * compiled out: defining TSUNAMI_TRACE_DISABLED turns the macros into
//     `(void)0` for builds that must prove even the load away.
//
// Threading contract: each ring has exactly one writer (its thread); the
// exporter reads rings from any thread through relaxed atomics, so a span
// racing the export may be read half-old / half-new — a garbled entry in a
// diagnostic artifact, never UB and never a TSan report. Buffers outlive
// their threads (the registry keeps them alive), so spans from joined pool
// workers still appear in the export.
//
// Categories in use: "pool" (job execution, parallel loops),
// "service" (drain jobs, publishes), "stream" (push),
// "kernel" (FFT/GEMM phases of the block-Toeplitz apply), "offline"
// (phase 1-3 builds, streaming precompute).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace tsunami::obs {

namespace detail {

extern std::atomic<bool> g_trace_enabled;

[[nodiscard]] std::int64_t now_ns();

/// Record a completed span [t0, t1] into the calling thread's ring.
void record_span(const char* category, const char* name, std::int64_t t0_ns,
                 std::int64_t t1_ns);

}  // namespace detail

/// True when spans are being recorded. The only thing a disabled TRACE_SCOPE
/// ever evaluates.
// mo: relaxed — hot-path poll of an on/off flag; observing a toggle late
// only delays when spans start/stop being recorded.
[[nodiscard]] inline bool trace_enabled() {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/// Turn recording on/off at runtime (TSUNAMI_TRACE=path enables it at
/// startup and registers an at-exit export). Toggling does not clear
/// already-recorded spans.
void set_trace_enabled(bool enabled);

/// Per-thread ring capacity in spans for buffers created AFTER this call
/// (existing buffers keep their size). Also settable via the
/// TSUNAMI_TRACE_RING environment variable. Clamped to [64, 1 << 22];
/// default 8192.
void set_trace_buffer_capacity(std::size_t spans);

/// The ring capacity new per-thread buffers are created with.
[[nodiscard]] std::size_t trace_buffer_capacity();

/// Nanoseconds on the tracing module's monotonic clock (steady_clock pinned
/// to a process-start epoch). The shared timebase of trace spans, journal
/// records (src/service/event_journal.hpp), and forecast-staleness gauges,
/// so all three line up in one timeline.
[[nodiscard]] inline std::int64_t monotonic_ns() { return detail::now_ns(); }

/// Label the calling thread in the exported trace ("pool-worker-3"). Safe to
/// call whether or not tracing is enabled; cheap enough for thread startup.
void set_thread_name(const std::string& name);

/// Spans currently retained across all thread rings (post-wrap).
[[nodiscard]] std::size_t trace_span_count();

/// Spans overwritten by ring wrap-around since the last clear — nonzero
/// means the export is a suffix, not the whole history.
[[nodiscard]] std::size_t trace_dropped_count();

/// Drop every retained span (buffers stay registered). For benchmarks and
/// tests that want a clean window.
void clear_trace();

/// The full trace as Chrome trace-event JSON (the "traceEvents" array of
/// complete "X" events plus thread-name metadata), loadable in Perfetto or
/// chrome://tracing.
[[nodiscard]] std::string chrome_trace_json();

/// Write chrome_trace_json() to `path`; returns false on I/O failure.
bool write_chrome_trace(const std::string& path);

/// RAII span: captures the start time at construction (if tracing is on) and
/// records the completed span at destruction. `category` and `name` must be
/// string literals or otherwise outlive the export (they are stored as
/// pointers, never copied — that is what keeps the hot path store-only).
class TraceScope {
 public:
  TraceScope(const char* category, const char* name)
      : category_(trace_enabled() ? category : nullptr),
        name_(name),
        t0_(category_ != nullptr ? detail::now_ns() : 0) {}

  ~TraceScope() {
    if (category_ != nullptr)
      detail::record_span(category_, name_, t0_, detail::now_ns());
  }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  const char* category_;  ///< null when tracing was off at construction
  const char* name_;
  std::int64_t t0_;
};

}  // namespace tsunami::obs

#ifndef TSUNAMI_TRACE_DISABLED
#define TSUNAMI_TRACE_CAT2(a, b) a##b
#define TSUNAMI_TRACE_CAT(a, b) TSUNAMI_TRACE_CAT2(a, b)
/// One completed span covering the enclosing scope. Arguments must be
/// string literals (see TraceScope).
#define TRACE_SCOPE(category, name)                              \
  const ::tsunami::obs::TraceScope TSUNAMI_TRACE_CAT(            \
      tsunami_trace_scope_, __LINE__)((category), (name))
#else
#define TRACE_SCOPE(category, name) static_cast<void>(0)
#endif
