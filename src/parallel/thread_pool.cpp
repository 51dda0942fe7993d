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
  Job* next = nullptr;  ///< injection-queue link (guarded by inject_mutex)
};

/// Chase-Lev work-stealing deque of Job*. The owner pushes and pops at the
/// bottom; thieves race a CAS on the top. The racy loads/stores use seq_cst
/// atomics rather than the textbook standalone fences: standalone
/// atomic_thread_fence is both easy to get subtly wrong and invisible to
/// TSan (which would then report false races through the deque), while
/// seq_cst operations on top_/bottom_ are strictly stronger and fully
/// modeled. The deque is far from the bottleneck — steals are rare under
/// chunked loops — so the stronger ordering costs nothing measurable.
class StealDeque {
 public:
  StealDeque() : array_(new Slots(kInitialCapacity)) {}

  ~StealDeque() {
    // mo: relaxed — destruction implies every other thread is done with the
    // deque; no concurrent access remains to order against.
    delete array_.load(std::memory_order_relaxed);
    for (Slots* retired : retired_) delete retired;
  }

  StealDeque(const StealDeque&) = delete;
  StealDeque& operator=(const StealDeque&) = delete;

  /// Owner only.
  void push(Job* job) {
    // mo: relaxed on owner-private bottom_/array_ reads (only this thread
    // writes them); acquire on top_ to see thieves' claims before sizing;
    // release on the array_ store publishes the grown slots to thieves.
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    Slots* a = array_.load(std::memory_order_relaxed);
    if (b - t >= static_cast<std::int64_t>(a->capacity)) {
      // Full: publish a doubled array. The old array is retired, not freed —
      // a concurrent thief may still hold a pointer to it.
      Slots* grown = a->grow(t, b);
      retired_.push_back(a);
      // mo: release — pairs with steal()'s acquire load of array_ so the
      // copied slots are visible before a thief dereferences them.
      array_.store(grown, std::memory_order_release);
      a = grown;
    }
    a->put(b, job);
    // mo: seq_cst — deque-protocol publication of the new bottom; see the
    // class comment for why the protocol runs entirely on seq_cst.
    bottom_.store(b + 1, std::memory_order_seq_cst);
  }

  /// Owner only. Null when empty (or when a thief won the last element).
  Job* pop() {
    // mo: relaxed for the owner-private reads; seq_cst for the reservation
    // store + top load — the store/load pair must be globally ordered
    // against steal()'s top/bottom pair (the classic Chase-Lev SC fence,
    // expressed as seq_cst ops per the class comment).
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    Slots* a = array_.load(std::memory_order_relaxed);
    bottom_.store(b, std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    if (t > b) {
      // Empty: restore bottom.
      // mo: relaxed — owner-private undo; only this thread reads bottom_
      // without the protocol's seq_cst accesses in between.
      bottom_.store(b + 1, std::memory_order_relaxed);
      return nullptr;
    }
    Job* job = a->get(b);
    if (t == b) {
      // Last element: race thieves for it via the top CAS.
      // mo: seq_cst CAS decides the race for the final element; relaxed on
      // failure (losing carries no data) and on the bottom_ restore, which
      // only this owner reads.
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        job = nullptr;
      }
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
    return job;
  }

  /// Any thread. Null on empty or lost race.
  Job* steal() {
    // mo: seq_cst top/bottom reads + claiming CAS — the thief half of the
    // protocol ordering described in pop(); acquire on array_ pairs with
    // push()'s release so the grown slots are visible before get(). CAS
    // failure is relaxed: a lost race returns null, no data crosses.
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
    if (t >= b) return nullptr;
    Slots* a = array_.load(std::memory_order_acquire);
    Job* job = a->get(t);
    // mo: seq_cst claim CAS / relaxed failure — see the comment above.
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return nullptr;
    }
    return job;
  }

  // mo: seq_cst — reuses the protocol order for a racy emptiness hint;
  // weaker orders would be fine but the uniform rule keeps TSan's model
  // identical to shipped code (class comment).
  [[nodiscard]] bool looks_empty() const {
    return bottom_.load(std::memory_order_seq_cst) <=
           top_.load(std::memory_order_seq_cst);
  }

  /// Any thread; a racy snapshot suitable for metrics only.
  // mo: seq_cst — same uniform-protocol-order rationale as looks_empty().
  [[nodiscard]] std::size_t size() const {
    const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
    const std::int64_t t = top_.load(std::memory_order_seq_cst);
    return b > t ? static_cast<std::size_t>(b - t) : 0;
  }

 private:
  static constexpr std::size_t kInitialCapacity = 64;  // power of two

  struct Slots {
    explicit Slots(std::size_t cap)
        : capacity(cap), mask(cap - 1),
          entries(new std::atomic<Job*>[cap]) {}

    // mo: relaxed — slot contents are ordered by the top_/bottom_ protocol,
    // not by the slot accesses themselves (Chase-Lev invariant: a claimed
    // index is never concurrently rewritten).
    [[nodiscard]] Job* get(std::int64_t i) const {
      return entries[static_cast<std::size_t>(i) & mask].load(
          std::memory_order_relaxed);
    }
    void put(std::int64_t i, Job* job) {
      entries[static_cast<std::size_t>(i) & mask].store(
          job, std::memory_order_relaxed);
    }
    [[nodiscard]] Slots* grow(std::int64_t t, std::int64_t b) const {
      auto* next = new Slots(capacity * 2);
      for (std::int64_t i = t; i < b; ++i) next->put(i, get(i));
      return next;
    }

    std::size_t capacity;
    std::size_t mask;
    std::unique_ptr<std::atomic<Job*>[]> entries;
  };

  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
  std::atomic<Slots*> array_;
  std::vector<Slots*> retired_;  // owner-only; freed at destruction
};

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

struct Worker;

struct WorkerTls {
  void* pool = nullptr;  // the ThreadPool::Impl this thread belongs to
  Worker* worker = nullptr;
};

thread_local WorkerTls tls_worker;

struct Worker {
  StealDeque deque;
  std::size_t index = 0;
  // Per-worker observability counters; relaxed atomics so worker_stats()
  // can read them while the worker runs.
  std::atomic<std::uint64_t> jobs{0};
  std::atomic<std::uint64_t> steals{0};
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

  // FIFO of jobs from non-worker threads, linked through Job::next so an
  // enqueue allocates nothing beyond the Job itself.
  std::mutex inject_mutex;
  Job* inject_head = nullptr;
  Job* inject_tail = nullptr;

  // Idle protocol. `signals` is bumped on every job submission; a worker
  // snapshots it before its final empty re-check, then waits for it to
  // change: first spinning (at most one worker, the holder of `spinning`),
  // then parked on wake_cv (counted in `sleepers`). All of signals,
  // spinning and sleepers are seq_cst, and each side stores before it
  // loads, so of a submitter (bump signals, then read spinning and
  // sleepers) and a worker going idle (set spinning or sleepers, then read
  // signals) at least one sees the other:
  //   * a submitter that sees a spinner skips the wakeup; the spinner sees
  //     the bump before it clears `spinning` or in its re-read after;
  //   * a submitter that sees no sleeper skips the wakeup; a worker that
  //     parks later sees the bump in its wait predicate;
  //   * otherwise the submitter takes wake_mutex (so a sleeper is either
  //     before its predicate check or inside wait) and notifies one.
  std::mutex wake_mutex;
  std::condition_variable wake_cv;
  std::atomic<std::uint64_t> signals{0};
  std::atomic<bool> spinning{false};
  std::atomic<std::size_t> sleepers{0};
  std::atomic<bool> stop{false};

  // submit()-job accounting for wait_idle().
  std::atomic<std::int64_t> inflight{0};
  std::mutex idle_mutex;
  std::condition_variable idle_cv;

  std::atomic<std::uint64_t> steals{0};

  /// Epoch of the current worker set (reset on spawn) for utilization.
  std::chrono::steady_clock::time_point spawned_at =
      std::chrono::steady_clock::now();

  void push_job(Job* job) {
    // mo: relaxed — inflight is a pure count; the paired acq_rel decrement
    // in execute() orders the idle handoff.
    inflight.fetch_add(1, std::memory_order_relaxed);
    if (tls_worker.pool == this && tls_worker.worker != nullptr) {
      tls_worker.worker->deque.push(job);
    } else {
      push_injected(job);
    }
    // mo: seq_cst — the bump releases the job enqueued above to whichever
    // worker reads it, and is the submitter's store of the store-then-load
    // pair in the Impl comment; the spinning/sleepers reads are its loads.
    signals.fetch_add(1, std::memory_order_seq_cst);
    if (spinning.load(std::memory_order_seq_cst)) return;
    wake_sleepers(/*all=*/false);
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

  void push_injected(Job* job) {
    const std::lock_guard<std::mutex> lock(inject_mutex);
    if (inject_tail != nullptr)
      inject_tail->next = job;
    else
      inject_head = job;
    inject_tail = job;
  }

  Job* pop_injected() {
    const std::lock_guard<std::mutex> lock(inject_mutex);
    Job* job = inject_head;
    if (job == nullptr) return nullptr;
    inject_head = job->next;
    if (inject_head == nullptr) inject_tail = nullptr;
    job->next = nullptr;
    return job;
  }

  Job* find_work(Worker& me) {
    if (Job* job = me.deque.pop()) return job;
    if (Job* job = pop_injected()) return job;
    for (const auto& victim : workers) {
      if (victim.get() == &me) continue;
      if (Job* job = victim->deque.steal()) {
        // mo: relaxed — observability counters, read racily by stats calls.
        steals.fetch_add(1, std::memory_order_relaxed);
        me.steals.fetch_add(1, std::memory_order_relaxed);
        TRACE_INSTANT("pool", "steal");
        return job;
      }
    }
    return nullptr;
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

  /// Spins until `signals` moves past `seen` or kSpinWindow runs out,
  /// unless another worker holds the spinner role. Returns the
  /// number of submissions since `seen`, read after the role is released
  /// (0: park). A burst that arrived during the spin skipped its wakeups,
  /// so the spinner wakes the parked workers for the jobs it cannot run.
  std::uint64_t spin(Worker& me, std::uint64_t seen) {
    bool idle = false;
    // mo: seq_cst — the worker's store of the store-then-load pair (Impl
    // comment): a submitter that misses this CAS's `true` notifies.
    if (!spinning.compare_exchange_strong(idle, true,
                                          std::memory_order_seq_cst,
                                          std::memory_order_relaxed))
      return 0;
    const auto t0 = std::chrono::steady_clock::now();
    const auto deadline = t0 + ThreadPool::kSpinWindow;
    auto now = t0;
    // mo: seq_cst — acquires the submitted job (the protocol's loads are
    // all seq_cst; Impl comment).
    while (signals.load(std::memory_order_seq_cst) == seen && now < deadline) {
      cpu_relax();
      now = std::chrono::steady_clock::now();
    }
    // mo: relaxed — per-worker observability counter (see Worker).
    me.spin_ns.fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - t0).count(),
        std::memory_order_relaxed);
    // mo: seq_cst — releasing the role, then re-reading signals: every
    // submitter that saw the role held bumped signals before this store,
    // so the re-read counts it (Impl comment).
    spinning.store(false, std::memory_order_seq_cst);
    const std::uint64_t arrived =
        signals.load(std::memory_order_seq_cst) - seen;
    if (arrived > 1) wake_sleepers(/*all=*/true);
    return arrived;
  }

  void worker_main(Worker& me) {
    tls_worker = {this, &me};
    obs::set_thread_name("pool-worker-" + std::to_string(me.index));
    for (;;) {
      if (Job* job = find_work(me)) {
        execute(me, job);
        continue;
      }
      // mo: seq_cst — pairs with push_job's bump: if a submission landed
      // before this snapshot, the re-check below must find its job (the
      // no-lost-wakeup argument in the Impl comment).
      const std::uint64_t seen = signals.load(std::memory_order_seq_cst);
      if (Job* job = find_work(me)) {
        execute(me, job);
        continue;
      }
      if (spin(me, seen) > 0) continue;
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
    for (std::size_t i = 0; i < n; ++i) {
      workers.push_back(std::make_unique<Worker>());
      workers.back()->index = i;
    }
    // Spawn only after the vector is fully built: workers scan each other's
    // deques when stealing.
    for (auto& w : workers) {
      Worker* self = w.get();
      w->thread = std::thread([this, self] { worker_main(*self); });
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

  /// Moves jobs stranded in worker deques back to the injection queue
  /// (workers are joined, so owner/thief roles are moot).
  void salvage_deques() {
    for (auto& w : workers) {
      while (Job* job = w->deque.steal()) push_injected(job);
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
  impl_->salvage_deques();
  // Unexecuted jobs (there normally are none: owners wait for their work)
  // are dropped, not run — destruction is not a drain point.
  while (Job* job = impl_->pop_injected()) {
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
  impl_->salvage_deques();
  impl_->spawn(n);
  // Re-signal in case jobs were salvaged into the injection queue.
  // mo: seq_cst — same protocol as push_job's signal bump.
  impl_->signals.fetch_add(1, std::memory_order_seq_cst);
  impl_->wake_sleepers(/*all=*/true);
}

std::size_t ThreadPool::steal_count() const {
  // mo: relaxed — racy observability read of a statistics counter.
  return impl_->steals.load(std::memory_order_relaxed);
}

std::vector<ThreadPool::WorkerStats> ThreadPool::worker_stats() const {
  std::vector<WorkerStats> out;
  out.reserve(impl_->workers.size());
  for (const auto& w : impl_->workers) {
    WorkerStats s;
    // mo: relaxed — racy snapshot of per-worker statistics while the
    // workers keep running; staleness is fine by contract.
    s.jobs = w->jobs.load(std::memory_order_relaxed);
    s.steals = w->steals.load(std::memory_order_relaxed);
    s.busy_seconds =
        static_cast<double>(w->busy_ns.load(std::memory_order_relaxed)) / 1e9;
    s.spin_seconds =
        static_cast<double>(w->spin_ns.load(std::memory_order_relaxed)) / 1e9;
    s.queue_depth = w->deque.size();
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
