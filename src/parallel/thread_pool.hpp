#pragma once

// Persistent work-stealing thread pool — the process-wide compute substrate.
//
// One pool, created on first use, serves every parallel loop in the repo:
// offline phase builds, ScenarioBank sweeps, the FFT/GEMM hot paths, and the
// WarningService drain jobs (the service submits fire-and-forget jobs to the
// same workers the numeric loops run on, so a busy tick and a background
// sweep share one set of threads instead of oversubscribing the machine).
//
// Scheduling: each worker owns a Chase-Lev deque (owner pushes/pops the
// bottom, idle thieves CAS the top), plus a mutex-guarded injection queue for
// jobs submitted from non-worker threads. A worker that runs out of work
// first spins on the pool's submission counter for up to kSpinWindow, then
// parks on a condition variable. At most one worker spins at a time, so an
// idle pool burns at most one core for one window before every worker
// sleeps. A submit skips the wakeup while a spinner is active (the spinner
// wakes parked workers if a burst arrived); otherwise it wakes one parked
// worker. The submission counter is a generation count, so no submit can
// race a worker into missing its wakeup.
//
// Determinism contract (load-balancing without result drift): `run()` splits
// work into ITEMS whose count the caller derives only from the problem size
// and the machine (see loop_chunks), never from the worker count. Items are
// claimed dynamically — which thread runs an item is scheduling-dependent —
// so bodies must write disjoint data per item; reductions must store
// per-item partials and combine them serially in item order. Under those
// rules every result is bit-identical at any worker count, which the
// determinism suite asserts for worker counts {1, 2, 4, hardware}.
//
// Nested parallelism is deadlock-free by construction: a thread inside
// `run()` only ever (a) claims and executes items or (b) waits for items
// that some thread is actively executing, so the wait graph is the loop
// nesting DAG.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

namespace tsunami {

/// Number of chunks a size-n loop is cut into: min(n, max(64, 4 * hardware
/// cores)). Depends only on n and the machine — NOT on the current worker
/// count — which is what makes chunked results worker-count-invariant.
[[nodiscard]] std::size_t loop_chunks(std::size_t n);

class ThreadPool {
 public:
  /// Spawns `threads` workers (0 = default_threads()). Always spawns at
  /// least one worker thread so fire-and-forget submit() jobs make progress
  /// even in a single-threaded configuration.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool, sized from TSUNAMI_NUM_THREADS (fallback
  /// OMP_NUM_THREADS, then hardware_concurrency) on first use.
  static ThreadPool& global();

  /// How long an idle worker spins before it parks. A park/unpark round
  /// trip (the submitter's futex wake plus the sleeper's reschedule) costs
  /// about 9.5 us on a 4-vCPU x86-64 host, most of a service tick whose
  /// math takes 3 us. The window must cover the gap between arrivals it is
  /// meant to catch: about 31 us for a 32k ticks/s feed, where 20 us caught
  /// too few and 50-150 us all caught nearly every tick.
  static constexpr std::chrono::microseconds kSpinWindow{100};

  /// Environment-resolved default worker count (>= 1).
  [[nodiscard]] static std::size_t default_threads();

  /// Current worker-thread count (the width parallel loops target).
  [[nodiscard]] std::size_t num_threads() const;

  /// Fire-and-forget job. Runs on some worker; exceptions escaping the job
  /// terminate (wrap in try/catch if failure must be reported). Callable
  /// from any thread, including from inside a running job.
  void submit(std::function<void()> job);

  /// Blocks until every submit()ted job has finished. Does not interact with
  /// run() loops (those are synchronous already).
  void wait_idle();

  /// Joins all workers and respawns `threads` (0 = default_threads()) of
  /// them. Pending submitted jobs are preserved and picked up by the new
  /// workers. Caller must ensure no run() loop is in flight. Intended for
  /// the determinism tests and the scaling bench.
  void resize(std::size_t threads);

  /// Cumulative cross-worker steals (observability for the stress tests).
  [[nodiscard]] std::size_t steal_count() const;

  /// Point-in-time counters of one worker thread, indexed [0, num_threads()).
  /// Counts reset when the worker set is respawned (construction, resize());
  /// the pool-wide steal_count() persists across resizes.
  struct WorkerStats {
    std::uint64_t jobs = 0;       ///< jobs executed (submit jobs + loop helpers)
    std::uint64_t steals = 0;     ///< successful steals performed BY this worker
    double busy_seconds = 0.0;    ///< wall time spent inside job bodies
    double spin_seconds = 0.0;    ///< wall time spent spinning while idle
    std::size_t queue_depth = 0;  ///< entries currently in its deque
  };

  /// Per-worker counters, one entry per worker. Safe to call concurrently
  /// with running work (counters are relaxed atomics); not concurrently with
  /// resize().
  [[nodiscard]] std::vector<WorkerStats> worker_stats() const;

  /// Seconds since the current worker set was spawned (utilization
  /// denominator: busy_seconds / uptime_seconds).
  [[nodiscard]] double uptime_seconds() const;

  /// Runs `f(item, slot)` for every item in [0, nitems). Blocks until all
  /// items complete; the calling thread participates. `slot` is a dense
  /// per-participant index < min(num_threads(), nitems), usable to index
  /// preallocated scratch. The first exception thrown by `f` is rethrown
  /// here after the loop quiesces (remaining items are skipped, not run).
  template <typename F>
  void run(std::size_t nitems, F&& f) {
    using Fn = std::remove_reference_t<F>;
    run_items(
        nitems,
        [](void* ctx, std::size_t item, std::size_t slot) {
          (*static_cast<Fn*>(ctx))(item, slot);
        },
        const_cast<void*>(static_cast<const void*>(std::addressof(f))));
  }

 private:
  using ItemFn = void (*)(void* ctx, std::size_t item, std::size_t slot);
  void run_items(std::size_t nitems, ItemFn fn, void* ctx);

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace tsunami
