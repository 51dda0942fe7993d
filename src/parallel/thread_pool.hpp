#pragma once

// Persistent thread pool — the process-wide compute substrate.
//
// One pool, created on first use, serves every parallel loop in the repo:
// offline phase builds, ScenarioBank sweeps, the FFT/GEMM hot paths, and the
// WarningService drain jobs (the service submits fire-and-forget jobs to the
// same workers the numeric loops run on, so a busy tick and a background
// sweep share one set of threads instead of oversubscribing the machine).
//
// Scheduling: every job — a submit()ted job or a run() loop's helper, from
// any thread — takes one path. Each worker has a one-job handoff slot; a
// worker that finds no work opens its slot and spins on it for up to
// kSpinWindow, then closes it and parks on a condition variable. A submit
// CASes its job into the lowest-index open slot, so a burst of up to
// num_threads() jobs starts on spinning workers with no lock and no
// syscall, and a light stream stays on one warm worker. Only when no slot
// is open does the job go to a mutex-guarded FIFO that all workers pop;
// that submit wakes one parked worker unless some slot is still open (its
// spinner sees the FIFO's submission counter move). The counter is a
// generation count, so no submit can race a worker into missing its
// wakeup.
//
// The cost: every idle worker spins, so an idle pool burns up to one core
// per worker for one window after its last job, then every worker sleeps.
// A stream of jobs closer together than the window keeps every worker
// awake, which is the price of starting a burst at once.
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

  /// How long an idle worker spins before it parks. Waking a parked worker
  /// costs the submitter a futex call of 0.5 us at p50 but 10.9 us at p90,
  /// and the woken worker starts 6-8 us after it on a 4-vCPU x86-64 host,
  /// more than a service tick whose math takes 3 us. The window must cover
  /// the gap between arrivals it is meant to catch: about 31 us for a 32k
  /// ticks/s feed, where 20 us caught too few and 50-150 us all caught
  /// nearly every tick.
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
  /// workers. Caller must ensure no run() loop is in flight and no thread
  /// outside the pool calls submit() meanwhile (a submit scans the worker
  /// list for an open slot). Intended for the determinism tests and the
  /// scaling bench.
  void resize(std::size_t threads);

  /// Jobs waiting in the FIFO right now (read under the queue's mutex). A
  /// job handed to a spinning worker's slot never queues, so it is not
  /// counted.
  [[nodiscard]] std::size_t queue_depth() const;

  /// Point-in-time counters of one worker thread, indexed [0, num_threads()).
  /// Counts reset when the worker set is respawned (construction, resize()).
  struct WorkerStats {
    std::uint64_t jobs = 0;     ///< jobs executed (submit jobs + loop helpers)
    /// Always 0: the pool has one shared queue and no worker steals. It
    /// stays only because the benchmark harness still reads it; ROADMAP
    /// item 1 stops that and deletes it.
    std::uint64_t steals = 0;
    double busy_seconds = 0.0;  ///< wall time spent inside job bodies
    double spin_seconds = 0.0;  ///< wall time spent spinning while idle
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
