// Tests for the persistent thread pool (src/parallel/): pool lifecycle
// under load, exception propagation out of parallel loops (and that the
// pool survives it), nested parallel_for without deadlock, fire-and-forget
// submit under heavy oversubscription, jobs submitted from inside a job
// running on other workers, resize semantics, and the spin-then-park idle
// protocol (every job of a stream runs once whatever its gaps, an idle pool
// parks, at most one worker spins). This suite is part of the
// ThreadSanitizer CI job: the job queue and the sleep protocol are exactly
// the code TSan must see clean.

#include <gtest/gtest.h>

#include <time.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"

namespace tsunami {
namespace {

using Clock = std::chrono::steady_clock;
constexpr std::chrono::nanoseconds kWindow = ThreadPool::kSpinWindow;

/// Busy-waits `d` on the calling thread (a sleep would overshoot a
/// sub-window gap by the timer slack).
void busy_wait(std::chrono::nanoseconds d) {
  const auto until = Clock::now() + d;
  while (Clock::now() < until) {
  }
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double total_spin_seconds(const ThreadPool& pool) {
  double s = 0.0;
  for (const auto& w : pool.worker_stats()) s += w.spin_seconds;
  return s;
}

TEST(ThreadPoolTest, LifecycleUnderLoad) {
  // Construct/destroy repeatedly with jobs in flight: the dtor must join
  // cleanly whether workers are sleeping, spinning, or running a job.
  for (int round = 0; round < 5; ++round) {
    ThreadPool pool(4);
    EXPECT_EQ(pool.num_threads(), 4u);
    std::atomic<int> ran{0};
    for (int i = 0; i < 64; ++i)
      pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    pool.wait_idle();
    EXPECT_EQ(ran.load(), 64);
  }
}

TEST(ThreadPoolTest, RunExecutesEveryItemExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kItems = 1000;
  std::vector<std::atomic<int>> hits(kItems);
  pool.run(kItems, [&](std::size_t i, std::size_t slot) {
    EXPECT_LT(slot, pool.num_threads());
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kItems; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  constexpr std::size_t kN = 100000;
  std::vector<unsigned char> hit(kN, 0);
  parallel_for(kN, [&](std::size_t i) { hit[i]++; });
  for (std::size_t i = 0; i < kN; ++i)
    ASSERT_EQ(hit[i], 1) << "index " << i;
}

TEST(ThreadPoolTest, ExceptionPropagatesAndPoolSurvives) {
  // The first exception thrown by any chunk must reach the caller; the
  // remaining items are abandoned, workers return to the pool, and the
  // SAME pool keeps serving loops afterwards.
  EXPECT_THROW(
      parallel_for(10000,
                   [](std::size_t i) {
                     if (i == 4321)
                       throw std::runtime_error("poisoned item");
                   }),
      std::runtime_error);

  double s = parallel_reduce_sum(1000, [](std::size_t) { return 1.0; });
  EXPECT_EQ(s, 1000.0);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // A loop body that launches another parallel loop: inner loops must make
  // progress even with every worker already inside the outer loop. The
  // claim-execute engine never blocks a worker on someone else's chunk, so
  // nesting is a DAG walk, not a thread handoff.
  std::atomic<std::size_t> total{0};
  parallel_for(16, [&](std::size_t) {
    parallel_for(64, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 16u * 64u);
}

TEST(ThreadPoolTest, OversubscribedSubmitDrains) {
  // Far more jobs than workers, submitted from several external threads at
  // once (all contending for the one job queue): every job runs exactly
  // once and wait_idle observes completion.
  ThreadPool pool(4);
  constexpr int kJobs = 1000;
  std::atomic<int> ran{0};
  std::vector<std::thread> submitters;
  for (int p = 0; p < 4; ++p) {
    submitters.emplace_back([&] {
      for (int i = 0; i < kJobs / 4; ++i)
        pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    });
  }
  for (auto& t : submitters) t.join();
  pool.wait_idle();
  EXPECT_EQ(ran.load(), kJobs);
}

TEST(ThreadPoolTest, JobsSubmittedFromAJobRunOnOtherWorkers) {
  // One parent job submits 512 children, then waits (with a deadline) until
  // one has run. Its own worker is busy running the parent, so a child that
  // ran before the parent returned ran on another worker, however loaded
  // the host is. Assert that at least one child ran off the parent's thread.
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  std::atomic<int> ran_elsewhere{0};
  std::atomic<bool> done{false};
  pool.submit([&] {
    const std::thread::id parent = std::this_thread::get_id();
    for (int i = 0; i < 512; ++i) {
      pool.submit([&ran, &ran_elsewhere, parent] {
        // A touch of work so children outlive the parent's submit loop.
        volatile double x = 1.0;
        for (int k = 0; k < 2000; ++k) x = x * 1.0000001 + 1e-9;
        if (std::this_thread::get_id() != parent)
          ran_elsewhere.fetch_add(1, std::memory_order_relaxed);
        ran.fetch_add(1, std::memory_order_relaxed);
      });
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (ran.load(std::memory_order_relaxed) == 0 &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
    done.store(true, std::memory_order_release);
  });
  pool.wait_idle();
  EXPECT_TRUE(done.load(std::memory_order_acquire));
  EXPECT_EQ(ran.load(), 512);
  EXPECT_GT(ran_elsewhere.load(), 0);
}

TEST(ThreadPoolTest, ResizePreservesPendingJobs) {
  ThreadPool pool(1);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i)
    pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  // Jobs still queued (or mid-run) when the worker set is torn down must be
  // run by the new workers, not dropped.
  pool.resize(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 100);

  pool.resize(2);
  pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 101);
}

TEST(ThreadPoolTest, JobStreamAcrossTheSpinWindowRunsEveryJobOnce) {
  // One external submitter (this thread), gaps of 0, 1/2, 1 and 2 spin
  // windows in turn: jobs land on a spinning worker, on the window's edge
  // (the spinner releasing its role as the submit skips or sends the
  // wakeup) and on a parked pool. A lost wakeup would strand a job and
  // hang wait_idle.
  for (const std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
    ThreadPool pool(workers);
    constexpr std::size_t kJobs = 10000;
    const std::chrono::nanoseconds gaps[] = {std::chrono::nanoseconds{0},
                                             kWindow / 2, kWindow, 2 * kWindow};
    std::vector<std::atomic<int>> runs(kJobs);
    for (std::size_t i = 0; i < kJobs; ++i) {
      busy_wait(gaps[i % 4]);
      pool.submit(
          [&runs, i] { runs[i].fetch_add(1, std::memory_order_relaxed); });
    }
    pool.wait_idle();
    std::size_t wrong = 0;
    for (const auto& r : runs)
      if (r.load(std::memory_order_relaxed) != 1) ++wrong;
    EXPECT_EQ(wrong, 0u) << workers << " workers";
  }
}

TEST(ThreadPoolTest, IdlePoolParks) {
  // The spin is bounded: once the window has passed, every worker sleeps
  // and the idle process burns (almost) no CPU.
  ThreadPool pool(4);
  for (int i = 0; i < 8; ++i) pool.submit([] {});
  pool.wait_idle();
  std::this_thread::sleep_for(10 * kWindow);
  const double cpu0 = process_cpu_seconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const double idle_cpu = process_cpu_seconds() - cpu0;
  EXPECT_LT(idle_cpu, 5e-3) << "an idle pool kept spinning";
}

TEST(ThreadPoolTest, AtMostOneWorkerSpins) {
  // Jobs every quarter window keep the idle workers of a 4-worker pool
  // wanting to spin. Spin intervals are disjoint when only one worker
  // holds the spinner role, so their sum cannot exceed the stream's wall
  // time (plus one window of slack); three spinning workers would sum to
  // about three times it.
  ThreadPool pool(4);
  pool.submit([] {});
  pool.wait_idle();
  std::this_thread::sleep_for(2 * kWindow);  // the warm-up spin has ended
  const double spin0 = total_spin_seconds(pool);
  const auto t0 = Clock::now();
  for (int i = 0; i < 2000; ++i) {
    busy_wait(kWindow / 4);
    pool.submit([] {});
  }
  pool.wait_idle();
  const double spun = total_spin_seconds(pool) - spin0;
  const double wall =
      std::chrono::duration<double>(Clock::now() - t0 + kWindow).count();
  EXPECT_GT(spun, 0.0);
  EXPECT_LE(spun, wall);
}

TEST(ThreadPoolTest, ChunkGridIsIndependentOfWorkerCount) {
  // The determinism contract rests on this: the chunk grid is a pure
  // function of n (and the machine), never of the worker count.
  for (std::size_t n : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                        std::size_t{1000}, std::size_t{1} << 20}) {
    const std::size_t c = loop_chunks(n);
    EXPECT_GE(c, std::min<std::size_t>(n, 1));
    EXPECT_LE(c, n);
  }
  EXPECT_EQ(loop_chunks(0), 0u);
}

}  // namespace
}  // namespace tsunami
