#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <initializer_list>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"

namespace tsunami {
namespace {

constexpr std::size_t kMaxThreads = 512;

std::size_t hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

/// First positive integer found in the named environment variables, or 0.
std::size_t env_threads(std::initializer_list<const char*> names) {
  for (const char* name : names) {
    const char* raw = std::getenv(name);
    if (raw == nullptr || *raw == '\0') continue;
    char* end = nullptr;
    const long v = std::strtol(raw, &end, 10);
    if (end != raw && v > 0) return static_cast<std::size_t>(v);
  }
  return 0;
}

struct Job {
  std::function<void()> fn;
  Job* next = nullptr;  ///< job-queue link (guarded by queue_mutex)
};

/// What an open handoff slot holds (only its address is used): its worker
/// spins and accepts a job.
Job open_marker;
Job* const kOpen = &open_marker;

/// State of one in-flight run() loop, shared by the caller and its helper
/// jobs. Items are claimed via `next`; completion is `done == nitems`.
struct LoopState {
  LoopState(std::size_t n, void (*f)(void*, std::size_t, std::size_t),
            void* c)
      : nitems(n), fn(f), ctx(c) {}

  const std::size_t nitems;
  void (*const fn)(void*, std::size_t, std::size_t);
  void* const ctx;

  std::atomic<std::size_t> next{0};   ///< next unclaimed item
  std::atomic<std::size_t> done{0};   ///< completed (or skipped) items
  std::atomic<std::size_t> slots{0};  ///< dense participant-slot allocator
  std::atomic<bool> failed{false};    ///< set once an item threw

  std::mutex mutex;
  std::condition_variable done_cv;
  std::exception_ptr error;  ///< first exception, guarded by mutex
};

/// Claim-and-execute until the loop runs dry. Never blocks, so it is safe to
/// call from arbitrarily nested loops.
void work_on(LoopState& state) {
  // mo: relaxed — slot/item tickets only need atomicity of the increment
  // (each participant gets a unique value); nothing is published through
  // them. failed is a best-effort skip hint: its definitive read happens
  // after the done_cv wait, which the mutex orders.
  const std::size_t slot = state.slots.fetch_add(1, std::memory_order_relaxed);
  for (;;) {
    const std::size_t item = state.next.fetch_add(1, std::memory_order_relaxed);
    if (item >= state.nitems) return;
    if (!state.failed.load(std::memory_order_relaxed)) {
      try {
        state.fn(state.ctx, item, slot);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(state.mutex);
        if (!state.error) state.error = std::current_exception();
        // mo: relaxed — best-effort skip hint (see function comment); the
        // authoritative error handoff is state.error under the mutex.
        state.failed.store(true, std::memory_order_relaxed);
      }
    }
    // mo: acq_rel — the completing increment: release publishes this item's
    // writes; the acquire half (paired with run_items' acquire read of done)
    // makes every item's effects visible to the loop's caller.
    if (state.done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        state.nitems) {
      const std::lock_guard<std::mutex> lock(state.mutex);
      state.done_cv.notify_all();
    }
  }
}

struct Worker {
  /// One-job handoff slot, alone on its cache line (submitters peek at it on
  /// every submit): null while the worker runs a job or sleeps, kOpen while
  /// it spins and accepts a job, else the job a submitter handed it.
  alignas(64) std::atomic<Job*> slot{nullptr};
  alignas(64) std::size_t index = 0;
  // Per-worker observability counters; relaxed atomics so worker_stats()
  // can read them while the worker runs.
  std::atomic<std::uint64_t> jobs{0};
  std::atomic<std::int64_t> busy_ns{0};
  std::atomic<std::int64_t> spin_ns{0};
  std::thread thread;
};

/// One spin-loop pause: tells the core this is a busy-wait, which frees
/// its execution resources for a sibling hyperthread.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

struct ThreadPool::Impl {
  std::size_t threads = 1;
  std::vector<std::unique_ptr<Worker>> workers;

  // The FIFO behind the handoff slots: every job no open slot took, from
  // any thread. Linked through Job::next, so an enqueue allocates nothing
  // beyond the Job itself.
  std::mutex queue_mutex;
  Job* queue_head = nullptr;
  Job* queue_tail = nullptr;
  std::size_t queued = 0;  ///< jobs in the FIFO (guarded by queue_mutex)

  // Idle protocol. A worker that finds the FIFO empty snapshots `signals`
  // (bumped on every FIFO enqueue), re-checks the FIFO, then opens its
  // handoff slot and spins until the slot holds a job, `signals` moves or
  // kSpinWindow runs out. It closes the slot, and parks on wake_cv (counted
  // in `sleepers`) only if `signals` has not moved. `open_slots` counts open
  // slots and never exceeds the number that hold kOpen: an owner stores
  // kOpen before it counts its slot, and whoever closes a slot (the
  // submitter that fills it or the owner that shuts it) uncounts it before
  // its CAS and counts it back if the CAS fails.
  //
  // A submit CASes its job into the lowest-index open slot; with none open
  // it enqueues, bumps `signals` and wakes one parked worker unless
  // `open_slots` > 0. No job is lost:
  //   * a handed-off job is read by its slot's owner in the spin, or found
  //     by the owner's failed close CAS;
  //   * for a FIFO job, signals, open_slots, sleepers and the slot CASes
  //     are seq_cst and each side stores before it loads, so of a submitter
  //     (bump signals, then read open_slots and sleepers) and a worker going
  //     idle (open or park, then read signals) at least one sees the other:
  //     - a submitter that reads open_slots > 0 skips the wakeup: some slot
  //       held kOpen at that read. If its owner closes it, the owner's
  //       re-read of signals after the close sees the bump. If a submitter
  //       fills it, the owner reads signals after it takes the handed job
  //       and wakes a parked worker for the FIFO job;
  //     - a submitter that sees no sleeper skips the wakeup; a worker that
  //       parks later sees the bump in its wait predicate;
  //     - otherwise the submitter takes wake_mutex (so a sleeper is either
  //       before its predicate check or inside wait) and notifies one.
  //   A worker whose snapshot already counts the bump re-checks the FIFO
  //   after it, and the bump publishes the enqueue, so it finds the job.
  std::mutex wake_mutex;
  std::condition_variable wake_cv;
  std::atomic<std::uint64_t> signals{0};
  std::atomic<std::int64_t> open_slots{0};
  std::atomic<std::size_t> sleepers{0};
  std::atomic<bool> stop{false};

  // submit()-job accounting for wait_idle().
  std::atomic<std::int64_t> inflight{0};
  std::mutex idle_mutex;
  std::condition_variable idle_cv;

  /// Epoch of the current worker set (reset on spawn) for utilization.
  std::chrono::steady_clock::time_point spawned_at =
      std::chrono::steady_clock::now();

  void push_job(Job* job) {
    // mo: relaxed — inflight is a pure count; the paired acq_rel decrement
    // in execute() orders the idle handoff.
    inflight.fetch_add(1, std::memory_order_relaxed);
    if (hand_off(job)) return;
    enqueue(job);
    // mo: seq_cst — the submitter's store of the store-then-load pair in
    // the Impl comment (queue_mutex publishes the job itself); the
    // open_slots/sleepers reads are its loads.
    signals.fetch_add(1, std::memory_order_seq_cst);
    if (open_slots.load(std::memory_order_seq_cst) > 0) return;
    wake_sleepers(/*all=*/false);
  }

  /// CASes `job` into the lowest-index open slot; false when none took it.
  bool hand_off(Job* job) {
    // mo: relaxed — a hint that skips the scan; a stale 0 only sends the
    // job to the FIFO, whose protocol stands on its own (Impl comment).
    if (open_slots.load(std::memory_order_relaxed) <= 0) return false;
    for (const auto& w : workers) {
      // mo: relaxed — a read-only peek, so a busy worker's slot line stays
      // shared; the CAS below decides.
      if (w->slot.load(std::memory_order_relaxed) != kOpen) continue;
      // mo: seq_cst — uncount before the CAS, so open_slots never exceeds
      // the slots that hold kOpen (Impl comment).
      open_slots.fetch_sub(1, std::memory_order_seq_cst);
      Job* open = kOpen;
      // mo: seq_cst — the release half hands the job to the slot's owner;
      // seq_cst keeps the uncount before it in the protocol's total order.
      if (w->slot.compare_exchange_strong(open, job, std::memory_order_seq_cst,
                                          std::memory_order_relaxed))
        return true;
      // mo: seq_cst — the owner closed the slot or another submitter
      // filled it first; count it back (Impl comment).
      open_slots.fetch_add(1, std::memory_order_seq_cst);
    }
    return false;
  }

  /// Wakes one (or every) parked worker, if any is parked.
  void wake_sleepers(bool all) {
    // mo: seq_cst — the load half of the submitter's store-then-load pair
    // (Impl comment); the mutex round trip below closes the window between
    // a sleeper's predicate check and its wait.
    if (sleepers.load(std::memory_order_seq_cst) == 0) return;
    { const std::lock_guard<std::mutex> lock(wake_mutex); }
    if (all)
      wake_cv.notify_all();
    else
      wake_cv.notify_one();
  }

  void enqueue(Job* job) {
    const std::lock_guard<std::mutex> lock(queue_mutex);
    if (queue_tail != nullptr)
      queue_tail->next = job;
    else
      queue_head = job;
    queue_tail = job;
    ++queued;
  }

  Job* dequeue() {
    const std::lock_guard<std::mutex> lock(queue_mutex);
    Job* job = queue_head;
    if (job == nullptr) return nullptr;
    queue_head = job->next;
    if (queue_head == nullptr) queue_tail = nullptr;
    --queued;
    return job;
  }

  void execute(Worker& me, Job* job) {
    {
      TRACE_SCOPE("pool", "job");
      const auto t0 = std::chrono::steady_clock::now();
      job->fn();
      // mo: relaxed — per-worker observability counters (see Worker).
      me.busy_ns.fetch_add(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count(),
          std::memory_order_relaxed);
      me.jobs.fetch_add(1, std::memory_order_relaxed);
    }
    delete job;
    // mo: acq_rel — the last decrement releases this job's effects and
    // acquires every earlier job's, so wait_idle()'s acquire read of 0
    // hands the caller a fully published state.
    if (inflight.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      const std::lock_guard<std::mutex> lock(idle_mutex);
      idle_cv.notify_all();
    }
  }

  /// Opens the worker's slot and spins until a submitter hands it a job,
  /// `signals` moves past `seen` or kSpinWindow runs out, then closes the
  /// slot. Returns the handed job, or null (the caller re-reads signals).
  Job* spin(Worker& me, std::uint64_t seen) {
    // mo: seq_cst — the worker's stores of the store-then-load pair (Impl
    // comment): kOpen first, then the count, so open_slots never exceeds
    // the slots that hold kOpen.
    me.slot.store(kOpen, std::memory_order_seq_cst);
    open_slots.fetch_add(1, std::memory_order_seq_cst);
    const auto t0 = std::chrono::steady_clock::now();
    const auto deadline = t0 + ThreadPool::kSpinWindow;
    auto now = t0;
    Job* job = kOpen;
    // mo: seq_cst — the slot read acquires a handed job; the signals read
    // acquires a FIFO job (the protocol's loads are all seq_cst; Impl
    // comment).
    while ((job = me.slot.load(std::memory_order_seq_cst)) == kOpen &&
           signals.load(std::memory_order_seq_cst) == seen && now < deadline) {
      cpu_relax();
      now = std::chrono::steady_clock::now();
    }
    // mo: relaxed — per-worker observability counter (see Worker).
    me.spin_ns.fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - t0).count(),
        std::memory_order_relaxed);
    if (job == kOpen) {
      // mo: seq_cst — uncount before the closing CAS (Impl comment).
      open_slots.fetch_sub(1, std::memory_order_seq_cst);
      // mo: seq_cst — the close; a failure acquires the job that landed.
      if (me.slot.compare_exchange_strong(job, nullptr,
                                          std::memory_order_seq_cst,
                                          std::memory_order_seq_cst))
        return nullptr;
      // mo: seq_cst — the filling submitter uncounted the slot already;
      // count back this worker's uncount (Impl comment).
      open_slots.fetch_add(1, std::memory_order_seq_cst);
    }
    // mo: relaxed — only a slot holding kOpen is ever CASed, so nothing
    // races this reset of a slot that holds a job.
    me.slot.store(nullptr, std::memory_order_relaxed);
    // A FIFO submit in the open window may have skipped its wakeup because
    // this slot was open; this worker now runs the handed job, so it wakes
    // a parked worker in its place.
    // mo: seq_cst — read after the slot read above (Impl comment).
    const std::uint64_t arrived =
        signals.load(std::memory_order_seq_cst) - seen;
    if (arrived > 0) wake_sleepers(/*all=*/arrived > 1);
    return job;
  }

  void worker_main(Worker& me) {
    obs::set_thread_name("pool-worker-" + std::to_string(me.index));
    for (;;) {
      if (Job* job = dequeue()) {
        execute(me, job);
        continue;
      }
      // mo: seq_cst — pairs with push_job's bump: if a submission landed
      // before this snapshot, the re-check below must find its job (the
      // no-lost-wakeup argument in the Impl comment).
      const std::uint64_t seen = signals.load(std::memory_order_seq_cst);
      if (Job* job = dequeue()) {
        execute(me, job);
        continue;
      }
      if (Job* job = spin(me, seen)) {
        execute(me, job);
        continue;
      }
      // mo: seq_cst — the re-read after the close (Impl comment).
      if (signals.load(std::memory_order_seq_cst) != seen) continue;
      // mo: seq_cst — the parking worker's store-then-load pair (Impl
      // comment): registered here, then the predicate reads signals.
      sleepers.fetch_add(1, std::memory_order_seq_cst);
      {
        std::unique_lock<std::mutex> lock(wake_mutex);
        // mo: relaxed on stop, written under wake_mutex (join_all); seq_cst
        // on signals, the load that follows the sleepers registration.
        wake_cv.wait(lock, [&] {
          return stop.load(std::memory_order_relaxed) ||
                 signals.load(std::memory_order_seq_cst) != seen;
        });
      }
      // mo: seq_cst — same store-then-load discipline as the increment.
      sleepers.fetch_sub(1, std::memory_order_seq_cst);
      // mo: relaxed — re-read of the flag join_all wrote under wake_mutex,
      // which this thread held in the wait above.
      if (stop.load(std::memory_order_relaxed)) return;
    }
  }

  void spawn(std::size_t n) {
    // mo: relaxed — no worker threads exist yet; std::thread construction
    // below synchronizes-with each worker's start.
    stop.store(false, std::memory_order_relaxed);
    threads = n;
    workers.clear();
    workers.reserve(n);
    spawned_at = std::chrono::steady_clock::now();
    // Every Worker exists before any thread starts: a job a new worker runs
    // may submit, and the handoff scan reads the whole list.
    for (std::size_t i = 0; i < n; ++i) {
      workers.emplace_back(std::make_unique<Worker>())->index = i;
    }
    for (const auto& w : workers) {
      Worker* self = w.get();
      self->thread = std::thread([this, self] { worker_main(*self); });
    }
  }

  void join_all() {
    {
      const std::lock_guard<std::mutex> lock(wake_mutex);
      // mo: relaxed — written under wake_mutex, read by workers inside the
      // cv wait (also under wake_mutex); the mutex orders it.
      stop.store(true, std::memory_order_relaxed);
    }
    wake_cv.notify_all();
    for (auto& w : workers) {
      if (w->thread.joinable()) w->thread.join();
    }
  }
};

std::size_t loop_chunks(std::size_t n) {
  static const std::size_t kGrid = std::max<std::size_t>(
      64, 4 * hardware_threads());
  return std::min(n, kGrid);
}

ThreadPool::ThreadPool(std::size_t threads) : impl_(std::make_unique<Impl>()) {
  std::size_t n = threads == 0 ? default_threads() : threads;
  n = std::clamp<std::size_t>(n, 1, kMaxThreads);
  impl_->spawn(n);
}

ThreadPool::~ThreadPool() {
  impl_->join_all();
  // Unexecuted jobs (there normally are none: owners wait for their work)
  // are dropped, not run — destruction is not a drain point.
  while (Job* job = impl_->dequeue()) {
    delete job;
    // mo: relaxed — workers are joined; this is single-threaded cleanup.
    impl_->inflight.fetch_sub(1, std::memory_order_relaxed);
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

std::size_t ThreadPool::default_threads() {
  const std::size_t env =
      env_threads({"TSUNAMI_NUM_THREADS", "OMP_NUM_THREADS"});
  const std::size_t n = env != 0 ? env : hardware_threads();
  return std::clamp<std::size_t>(n, 1, kMaxThreads);
}

std::size_t ThreadPool::num_threads() const { return impl_->threads; }

void ThreadPool::submit(std::function<void()> job) {
  impl_->push_job(new Job{std::move(job)});
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(impl_->idle_mutex);
  // mo: acquire — pairs with execute()'s acq_rel decrement: reading 0 means
  // every completed job's writes are visible to the caller.
  impl_->idle_cv.wait(lock, [&] {
    return impl_->inflight.load(std::memory_order_acquire) == 0;
  });
}

void ThreadPool::resize(std::size_t threads) {
  std::size_t n = threads == 0 ? default_threads() : threads;
  n = std::clamp<std::size_t>(n, 1, kMaxThreads);
  if (n == impl_->threads) return;
  impl_->join_all();
  // Pending jobs stay queued: each new worker checks the queue before it
  // first goes idle.
  impl_->spawn(n);
}

std::size_t ThreadPool::queue_depth() const {
  const std::lock_guard<std::mutex> lock(impl_->queue_mutex);
  return impl_->queued;
}

std::vector<ThreadPool::WorkerStats> ThreadPool::worker_stats() const {
  std::vector<WorkerStats> out;
  out.reserve(impl_->workers.size());
  for (const auto& w : impl_->workers) {
    WorkerStats s;
    // mo: relaxed — racy snapshot of per-worker statistics while the
    // workers keep running; staleness is fine by contract.
    s.jobs = w->jobs.load(std::memory_order_relaxed);
    s.busy_seconds =
        static_cast<double>(w->busy_ns.load(std::memory_order_relaxed)) / 1e9;
    s.spin_seconds =
        static_cast<double>(w->spin_ns.load(std::memory_order_relaxed)) / 1e9;
    out.push_back(s);
  }
  return out;
}

double ThreadPool::uptime_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       impl_->spawned_at)
      .count();
}

void ThreadPool::run_items(std::size_t nitems, ItemFn fn, void* ctx) {
  if (nitems == 0) return;
  // Serial fast path: same item grid, same order, zero scheduling. Loops are
  // worker-count-invariant precisely because this path and the parallel path
  // execute the identical item decomposition.
  if (impl_->threads <= 1 || nitems == 1) {
    for (std::size_t i = 0; i < nitems; ++i) fn(ctx, i, 0);
    return;
  }

  TRACE_SCOPE("pool", "parallel_loop");
  auto state = std::make_shared<LoopState>(nitems, fn, ctx);
  // The caller participates, so at most min(threads, nitems) slots are ever
  // allocated — scratch sized num_threads()-wide is always sufficient.
  const std::size_t helpers =
      std::min(impl_->threads - 1, nitems - 1);
  for (std::size_t h = 0; h < helpers; ++h) {
    impl_->push_job(new Job{[state] { work_on(*state); }});
  }
  work_on(*state);

  {
    std::unique_lock<std::mutex> lock(state->mutex);
    // mo: acquire — pairs with work_on's acq_rel done increments: seeing
    // done == nitems makes every item's writes visible to this caller.
    state->done_cv.wait(lock, [&] {
      return state->done.load(std::memory_order_acquire) == nitems;
    });
  }
  if (state->error) std::rethrow_exception(state->error);
}

}  // namespace tsunami
