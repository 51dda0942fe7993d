// FFTMatvec micro-benchmarks (SecV-A / SecVII-B of the paper): the FFT-based
// block-Toeplitz matvec and its transpose against the O(Nt^2) dense-block
// reference.
//
// Shape expectations: the FFT path wins by a factor growing with Nt (the
// paper's kernels are memory-bound and reach 80-95% of device bandwidth; on
// CPU we report achieved GB/s of the compact operator traversal).
//
// PR 5 hot-path overhaul — before/after, min over alternating A/B runs on
// the same single-core container (the DenseReference rows served as the
// machine-state control: ~equal on both sides). The overhaul: r2c/c2r real
// transforms (half-length packing), fused radix-2^2 FFT stage pairs,
// split-complex frequency slabs with the untangle pass writing them
// directly, tiled per-frequency GEMM micro-kernels, and zero-allocation
// workspaces — vs the complex-AoS, allocate-per-call seed:
//
//   case                          before      after      speedup
//   apply        8 x  256 x  32   0.634 ms    0.184 ms    3.4x
//   apply        8 x  256 x 128   3.23  ms    0.849 ms    3.8x
//   apply        8 x  256 x 512  15.9   ms    4.93  ms    3.2x
//   apply       32 x 1024 x 128  23.3   ms    9.10  ms    2.6x
//   apply_T      8 x  256 x 128   3.15  ms    0.846 ms    3.7x
//   apply_T     32 x 1024 x 128  20.9   ms    8.05  ms    2.6x
//   apply_many   nrhs=1           3.07  ms    0.714 ms    4.3x
//   apply_many   nrhs=8          21.7   ms    5.16  ms    4.2x
//   apply_many   nrhs=32         93.2   ms   28.5   ms    3.3x
//
// The apply_many rows are history: every multi-RHS path is gone, and every
// case below applies one right-hand side.
//
// The structured JSON pass below re-measures these shapes on every run and
// writes BENCH_fftmatvec.json so the trajectory stays machine-readable; the
// google-benchmark section (skipped in TSUNAMI_BENCH_QUICK mode) provides
// the long-form statistics.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.hpp"
#include "toeplitz/block_toeplitz.hpp"
#include "util/rng.hpp"

namespace {

using namespace tsunami;

struct ToeplitzFixture {
  ToeplitzFixture(std::size_t rows, std::size_t cols, std::size_t nt)
      : t(rows, cols, nt, Rng(1).normal_vector(rows * cols * nt)) {
    Rng rng(2);
    x = rng.normal_vector(t.input_dim());
    y.resize(t.output_dim());
  }
  BlockToeplitz t;
  std::vector<double> x, y;
};

void BM_FftMatvec(benchmark::State& state) {
  ToeplitzFixture fx(static_cast<std::size_t>(state.range(0)),
                     static_cast<std::size_t>(state.range(1)),
                     static_cast<std::size_t>(state.range(2)));
  ToeplitzWorkspace ws;
  // The first apply builds the spectra and sizes the workspace.
  fx.t.apply(fx.x, std::span<double>(fx.y), ws);
  for (auto _ : state) {
    fx.t.apply(fx.x, std::span<double>(fx.y), ws);
    benchmark::DoNotOptimize(fx.y.data());
  }
  state.counters["operator_GB"] =
      static_cast<double>(fx.t.storage_bytes()) * 1e-9;
  state.counters["GB/s"] = benchmark::Counter(
      static_cast<double>(fx.t.storage_bytes()) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate);
}

void BM_DenseReferenceMatvec(benchmark::State& state) {
  ToeplitzFixture fx(static_cast<std::size_t>(state.range(0)),
                     static_cast<std::size_t>(state.range(1)),
                     static_cast<std::size_t>(state.range(2)));
  for (auto _ : state) {
    fx.t.apply_dense_reference(fx.x, std::span<double>(fx.y));
    benchmark::DoNotOptimize(fx.y.data());
  }
}

void BM_FftMatvecTranspose(benchmark::State& state) {
  ToeplitzFixture fx(static_cast<std::size_t>(state.range(0)),
                     static_cast<std::size_t>(state.range(1)),
                     static_cast<std::size_t>(state.range(2)));
  std::vector<double> xt(fx.t.output_dim()), yt(fx.t.input_dim());
  Rng rng(3);
  xt = rng.normal_vector(xt.size());
  ToeplitzWorkspace ws;
  for (auto _ : state) {
    fx.t.apply_transpose(xt, std::span<double>(yt), ws);
    benchmark::DoNotOptimize(yt.data());
  }
}

// ---------------------------------------------------------------------------
// Structured pass: fixed seed shapes, min-of-reps statistics, JSON output.
// ---------------------------------------------------------------------------

void run_json_pass() {
  namespace bu = tsunami::benchutil;
  bu::JsonReport report("fftmatvec");
  const int n = bu::reps(25);

  struct ApplyShape {
    std::size_t rows, cols, nt;
  };
  const ApplyShape shapes[] = {
      {8, 256, 32}, {8, 256, 128}, {8, 256, 512}, {32, 1024, 128}};
  std::printf("=== FFT matvec structured pass (%d reps/case) ===\n", n);
  for (const auto& s : shapes) {
    ToeplitzFixture fx(s.rows, s.cols, s.nt);
    ToeplitzWorkspace ws;
    const auto apply_stat = bu::time_reps(
        n, [&] { fx.t.apply(fx.x, std::span<double>(fx.y), ws); });
    report.add("apply",
               {{"rows", static_cast<double>(s.rows)},
                {"cols", static_cast<double>(s.cols)},
                {"nt", static_cast<double>(s.nt)}},
               apply_stat);
    std::vector<double> xt(fx.t.output_dim(), 0.5), yt(fx.t.input_dim());
    const auto trans_stat = bu::time_reps(
        n, [&] { fx.t.apply_transpose(xt, std::span<double>(yt), ws); });
    report.add("apply_transpose",
               {{"rows", static_cast<double>(s.rows)},
                {"cols", static_cast<double>(s.cols)},
                {"nt", static_cast<double>(s.nt)}},
               trans_stat);
    std::printf("  apply   %2zu x %4zu x %3zu  median %8.0f ns  (T: %8.0f)\n",
                s.rows, s.cols, s.nt, apply_stat.median_ns,
                trans_stat.median_ns);
  }

  report.write();
}

}  // namespace

// (rows=Nd, cols=Nm, nt) sweeps: sensor-count, spatial and temporal growth.
BENCHMARK(BM_FftMatvec)
    ->Args({8, 256, 32})
    ->Args({8, 256, 128})
    ->Args({8, 256, 512})
    ->Args({32, 1024, 128})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DenseReferenceMatvec)
    ->Args({8, 256, 32})
    ->Args({8, 256, 128})
    ->Args({8, 256, 512})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FftMatvecTranspose)
    ->Args({8, 256, 128})
    ->Args({32, 1024, 128})
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  run_json_pass();
  if (tsunami::benchutil::quick_mode()) return 0;  // CI smoke: execute only
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
