// Scaling study of the thread pool: a pure-flops
// parallel_reduce (no memory traffic to saturate) across worker counts —
// the pool's raw scaling ceiling on this machine — and the handoff of a
// burst of jobs, position by position.
//
// Worker counts are swept by resizing the process-global pool in place
// (ThreadPool::global().resize) — exactly what TSUNAMI_NUM_THREADS does at
// startup. BENCH_pool_scaling.json notes the measured speedup at 4 workers
// and the hardware thread count: on core-limited CI runners the speedup is
// honestly ~1x and the core count is the context a reader needs.
//
// The handoff cases submit kBursts bursts of `workers` jobs back to back
// from the main thread, each job holding its worker for kJobBody (about a
// service tick's math), like a service's tick-aligned events. Before each
// burst the pool either finished the previous burst just now
// (handoff_spinning: its workers are inside their spin window) or idled
// for two spin windows (handoff_parked: every worker has parked). Per burst
// position the report holds submit-to-job-start ("<case>/w<workers>/p<pos>/
// start") and the submit call's own cost (".../submit"), each a median with
// its p10/p90 over the bursts, in quick mode too. Each worker count gets
// its own pool. The submitting thread keeps the last allowed CPU to itself
// and each worker is pinned to one of the others, round-robin, so with as
// many workers as CPUs two of them share one. Left to the kernel, a woken
// worker can land on a busy CPU (the submitter's, or another worker's) and
// wait there for milliseconds, so the cases would measure its placement,
// not the pool.
//
// A parked start also depends on how long the worker has been parked, not
// only on the pool's wakeup path: on a 4-vCPU x86-64 VM, 4 workers started
// 7-8 us after their submits when they had parked about one window before
// the burst, and 17-21 us after ten windows of idle. So handoff_parked
// compares two pools fairly only if their workers park at the same time
// after a burst.

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kBursts = 200;
constexpr std::chrono::nanoseconds kJobBody{3000};
constexpr std::size_t kMaxBurst = 64;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// One burst's job start stamps and completion count, shared with its jobs.
struct Burst {
  std::array<std::atomic<std::int64_t>, kMaxBurst> started{};
  std::atomic<std::size_t> done{0};
};

/// Seconds per burst position: submit-to-job-start and the submit call.
struct Handoff {
  std::vector<std::vector<double>> start, submit;  // [position][burst]
};

/// CPUs this thread may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return out;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) out.push_back(c);
  return out;
}

/// Restricts this thread to `cpus`; threads it creates inherit the mask.
void pin_thread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  if (!cpus.empty())
    (void)pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

/// Pins each worker of `pool` to its own CPU of `cpus`, round-robin: one
/// job per worker, each held until all have started, so each runs on a
/// different worker and pins it.
void pin_workers(tsunami::ThreadPool& pool, const std::vector<int>& cpus) {
  const std::size_t n = pool.num_threads();
  std::atomic<std::size_t> arrived{0};
  for (std::size_t i = 0; i < n; ++i) {
    pool.submit([&] {
      const std::size_t me = arrived.fetch_add(1, std::memory_order_relaxed);
      while (arrived.load(std::memory_order_relaxed) < n) {
      }
      pin_thread({cpus[me % cpus.size()]});
    });
  }
  pool.wait_idle();
}

Handoff measure_handoff(tsunami::ThreadPool& pool, bool parked) {
  const std::size_t workers = pool.num_threads();
  Handoff h;
  h.start.resize(workers);
  h.submit.resize(workers);
  Burst burst;
  std::vector<std::int64_t> t_sub(workers), t_ret(workers);
  for (int b = -1; b < kBursts; ++b) {  // burst -1 warms up, unrecorded
    if (parked) std::this_thread::sleep_for(2 * tsunami::ThreadPool::kSpinWindow);
    burst.done.store(0, std::memory_order_relaxed);
    for (std::size_t p = 0; p < workers; ++p) {
      t_sub[p] = now_ns();
      pool.submit([ctx = &burst, p] {
        ctx->started[p].store(now_ns(), std::memory_order_relaxed);
        const auto until = Clock::now() + kJobBody;
        while (Clock::now() < until) {
        }
        ctx->done.fetch_add(1, std::memory_order_release);
      });
      t_ret[p] = now_ns();
    }
    while (burst.done.load(std::memory_order_acquire) < workers) {
    }
    if (b < 0) continue;
    for (std::size_t p = 0; p < workers; ++p) {
      const std::int64_t start =
          burst.started[p].load(std::memory_order_relaxed);
      h.start[p].push_back(static_cast<double>(start - t_sub[p]) * 1e-9);
      h.submit[p].push_back(static_cast<double>(t_ret[p] - t_sub[p]) * 1e-9);
    }
  }
  return h;
}

}  // namespace

int main() {
  using namespace tsunami;
  namespace bu = tsunami::benchutil;

  const bool quick = bu::quick_mode();
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::size_t> workers = {1, 2, 4};
  if (hw > 4) workers.push_back(hw);

  bu::JsonReport report("pool_scaling");
  report.note("hardware_threads", static_cast<double>(hw));

  std::printf("=== Thread pool scaling ===\n");
  std::printf("hardware threads: %u (speedups are core-limited above this)\n\n",
              hw);

  const std::size_t kItems = quick ? (1u << 16) : (1u << 20);
  const auto compute = [&] {
    volatile double sink = parallel_reduce_sum(kItems, [](std::size_t i) {
      double x = 1.0 + 1e-9 * static_cast<double>(i);
      for (int k = 0; k < 32; ++k) x = x * x - x + 0.25;
      return x;
    });
    (void)sink;
  };

  double compute_t1 = 0.0, compute_t4 = 0.0;
  std::printf("%-28s %8s %12s %10s\n", "case", "workers", "median", "speedup");
  for (const std::size_t w : workers) {
    ThreadPool::global().resize(w);
    const bu::Stat s = bu::time_reps(10, compute);
    if (w == 1) compute_t1 = s.median_ns;
    if (w == 4) compute_t4 = s.median_ns;
    const double speedup = compute_t1 > 0.0 ? compute_t1 / s.median_ns : 1.0;
    std::printf("%-28s %8zu %10.2f ms %9.2fx\n", "compute_reduce", w,
                s.median_ns * 1e-6, speedup);
    report.add("compute_reduce",
               {{"workers", static_cast<double>(w)},
                {"items", static_cast<double>(kItems)}},
               s);
  }
  if (compute_t4 > 0.0)
    report.note("speedup_at_4_workers", compute_t1 / compute_t4);

  std::printf("\n%-18s %8s %4s %26s %12s\n", "handoff", "workers", "pos",
              "submit->start p50 [p10, p90]", "submit p50");
  const std::vector<int> cpus = allowed_cpus();
  if (cpus.size() >= 2) pin_thread({cpus.back()});
  for (const std::size_t w : workers) {
    if (w > kMaxBurst) continue;
    ThreadPool pool(w);
    if (cpus.size() >= 2) pin_workers(pool, {cpus.begin(), cpus.end() - 1});
    for (const bool parked : {false, true}) {
      const std::string name = parked ? "handoff_parked" : "handoff_spinning";
      const Handoff h = measure_handoff(pool, parked);
      for (std::size_t p = 0; p < w; ++p) {
        const bu::Stat start = bu::from_seconds(h.start[p]);
        const bu::Stat submit = bu::from_seconds(h.submit[p]);
        const std::string key =
            name + "/w" + std::to_string(w) + "/p" + std::to_string(p);
        const std::vector<std::pair<std::string, double>> shape = {
            {"workers", static_cast<double>(w)},
            {"position", static_cast<double>(p)},
            {"job_body_ns", static_cast<double>(kJobBody.count())}};
        report.add(key + "/start", shape, start);
        report.add(key + "/submit", shape, submit);
        std::printf("%-18s %8zu %4zu %8.2f us [%6.2f, %6.2f] %9.2f us\n",
                    name.c_str(), w, p, start.median_ns * 1e-3,
                    start.p10_ns * 1e-3, start.p90_ns * 1e-3,
                    submit.median_ns * 1e-3);
      }
    }
  }
  pin_thread(cpus);

  const std::string file = report.write();
  std::printf("\nwrote %s\n", file.c_str());
  if (compute_t4 > 0.0) {
    const double s4 = compute_t1 / compute_t4;
    std::printf("speedup at 4 workers: %.2fx on %u hardware threads%s\n", s4,
                hw,
                hw < 4 ? " (core-limited: expect ~1x; the ratio above is the "
                         "honest number for this machine)"
                       : "");
  }
  return 0;
}
