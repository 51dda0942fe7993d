// Scaling study of the thread pool: a pure-flops
// parallel_reduce (no memory traffic to saturate) across worker counts —
// the pool's raw scaling ceiling on this machine.
//
// Worker counts are swept by resizing the process-global pool in place
// (ThreadPool::global().resize) — exactly what TSUNAMI_NUM_THREADS does at
// startup. BENCH_pool_scaling.json notes the measured speedup at 4 workers
// and the hardware thread count: on core-limited CI runners the speedup is
// honestly ~1x and the core count is the context a reader needs.

#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"

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
    const bu::Stat s = bu::time_reps(bu::reps(10), compute);
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
