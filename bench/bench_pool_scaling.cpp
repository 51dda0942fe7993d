// Scaling study of the work-stealing thread pool and the cross-event
// batched apply path. Three sweeps:
//
//   1. compute:   a pure-flops parallel_reduce (no memory traffic to
//                 saturate) across worker counts — the pool's raw scaling
//                 ceiling on this machine;
//   2. apply_transpose_many: the multi-RHS FFT Toeplitz transpose (the
//                 path the W* lift runs) across worker counts — scaling
//                 with real bandwidth limits;
//   3. push_many: K tick-aligned streaming pushes fused into one multi-RHS
//                 sweep versus K independent serial pushes, K in {1, 4, 16}
//                 — the cross-event batching win, which is an ALGORITHMIC
//                 reuse of the slab sweep and pays off even on one core.
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
#include "core/digital_twin.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "toeplitz/block_toeplitz.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

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

  // ---- 1. pure-compute parallel_reduce ----------------------------------
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

  // ---- 2. multi-RHS Toeplitz transpose ----------------------------------
  const std::size_t rows = 8, cols = 8, nt = quick ? 32 : 128, nrhs = 16;
  Rng rng(11);
  BlockToeplitz toep(rows, cols, nt, rng.normal_vector(rows * cols * nt));
  Matrix x(toep.output_dim(), nrhs), y(toep.input_dim(), nrhs);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal();

  double apply_t1 = 0.0;
  for (const std::size_t w : workers) {
    ThreadPool::global().resize(w);
    const bu::Stat s =
        bu::time_reps(bu::reps(10), [&] { toep.apply_transpose_many(x, y); });
    if (w == 1) apply_t1 = s.median_ns;
    const double speedup = apply_t1 > 0.0 ? apply_t1 / s.median_ns : 1.0;
    std::printf("%-28s %8zu %10.2f ms %9.2fx\n", "toeplitz_apply_T_many", w,
                s.median_ns * 1e-6, speedup);
    report.add("toeplitz_apply_transpose_many",
               {{"workers", static_cast<double>(w)},
                {"nt", static_cast<double>(nt)},
                {"nrhs", static_cast<double>(nrhs)}},
               s);
  }

  // ---- 3. cross-event batched pushes ------------------------------------
  ThreadPool::global().resize(0);  // environment default for the twin build

  TwinConfig config = TwinConfig::tiny();
  config.num_sensors = 8;
  config.num_gauges = 3;
  config.num_intervals = quick ? 16 : 32;
  config.observation_dt = 2.0;
  DigitalTwin twin(config);
  RuptureConfig rc;
  Asperity asp;
  asp.x0 = 0.3 * twin.mesh().length_x();
  asp.y0 = 0.5 * twin.mesh().length_y();
  asp.rx = 16e3;
  asp.ry = 24e3;
  asp.peak_uplift = 2.2;
  rc.asperities.push_back(asp);
  rc.hypocenter_x = asp.x0;
  rc.hypocenter_y = asp.y0;
  Rng erng(9);
  const SyntheticEvent event = twin.synthesize(RuptureScenario(rc), erng);
  twin.run_offline(event.noise);
  const StreamingEngine engine = twin.make_streaming({.track_map = false});
  const std::size_t ticks = engine.num_ticks();
  const std::size_t nd = engine.block_size();

  constexpr std::size_t kMaxEvents = 16;
  std::vector<std::vector<double>> obs;
  for (std::size_t e = 0; e < kMaxEvents; ++e) {
    obs.push_back(event.d_true);
    Rng noise(1000 + static_cast<unsigned>(e));
    for (auto& v : obs.back()) v += event.noise.sigma * noise.normal();
  }
  const auto block = [&](std::size_t e, std::size_t t) {
    return std::span<const double>(obs[e]).subspan(t * nd, nd);
  };

  std::printf("\n%-28s %8s %12s %10s\n", "case", "K", "median", "speedup");
  double batch_speedup_16 = 0.0;
  for (const std::size_t k : {std::size_t{1}, std::size_t{4}, kMaxEvents}) {
    // K full replays, serial: K assimilators pushed one after another.
    const bu::Stat serial = bu::time_reps(bu::reps(5), [&] {
      std::vector<StreamingAssimilator> evs;
      for (std::size_t e = 0; e < k; ++e) evs.push_back(engine.start());
      for (std::size_t t = 0; t < ticks; ++t)
        for (std::size_t e = 0; e < k; ++e) evs[e].push(t, block(e, t));
    });
    // The same K replays with every tick's pushes fused into one sweep.
    const bu::Stat batched = bu::time_reps(bu::reps(5), [&] {
      std::vector<StreamingAssimilator> evs;
      std::vector<StreamingAssimilator*> ptrs;
      for (std::size_t e = 0; e < k; ++e) evs.push_back(engine.start());
      for (auto& ev : evs) ptrs.push_back(&ev);
      std::vector<std::span<const double>> blocks(k);
      for (std::size_t t = 0; t < ticks; ++t) {
        for (std::size_t e = 0; e < k; ++e) blocks[e] = block(e, t);
        StreamingAssimilator::push_many(ptrs, t, blocks);
      }
    });
    const double speedup = batched.median_ns > 0.0
                               ? serial.median_ns / batched.median_ns
                               : 1.0;
    if (k == kMaxEvents) batch_speedup_16 = speedup;
    std::printf("%-28s %8zu %10.2f ms %9.2fx\n", "push_many_vs_serial", k,
                batched.median_ns * 1e-6, speedup);
    report.add("push_serial",
               {{"events", static_cast<double>(k)},
                {"ticks", static_cast<double>(ticks)}},
               serial);
    report.add("push_many",
               {{"events", static_cast<double>(k)},
                {"ticks", static_cast<double>(ticks)}},
               batched);
  }
  report.note("batch_speedup_at_16_events", batch_speedup_16);

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
