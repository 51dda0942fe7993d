#include "toeplitz/block_toeplitz.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"

namespace tsunami {

// The per-frequency kernels are pure unit-stride FMA streams: exactly the
// code that gains from vectors wider than the portable baseline ISA. GCC
// function multiversioning compiles each kernel additionally for x86-64-v3
// (AVX2 + FMA) and dispatches by CPUID once at load time — no global -march
// flag, and non-x86 / non-GNU / sanitizer builds keep the plain definition.
// Reproducibility note: dispatch is per-machine-deterministic, so every
// within-process exactness contract (legacy vs workspace API, streaming vs
// batch, warm vs cold) is unaffected; cross-ISA runs agree to the same
// tolerances as the FFT path itself.
#if defined(__x86_64__) && defined(__linux__) && defined(__GNUC__) && \
    !defined(__clang__) && !defined(__SANITIZE_THREAD__)
#define TSUNAMI_HOT_KERNEL __attribute__((target_clones("default", "arch=x86-64-v3")))
// The same CPUID test the clone resolver makes.
#define TSUNAMI_KERNEL_ISA \
  (__builtin_cpu_supports("x86-64-v3") ? "x86-64-v3" : "x86-64")
#elif defined(__x86_64__)
#define TSUNAMI_HOT_KERNEL
#define TSUNAMI_KERNEL_ISA "x86-64"
#else
#define TSUNAMI_HOT_KERNEL
#define TSUNAMI_KERNEL_ISA "portable"
#endif

const char* toeplitz_kernel_isa() { return TSUNAMI_KERNEL_ISA; }

namespace {

// Register tile of the frequency-domain micro-kernel: kTileR output rows x
// kTileV right-hand sides accumulate in local (register) storage while the
// reduction dimension streams through split-complex planes at unit stride.
// No zero-test branch in the inner loop: block spectra are dense, and the
// branch both defeated vectorization and cost a compare per FMA.
constexpr std::size_t kTileR = 4;
constexpr std::size_t kTileV = 8;

/// Single-RHS forward kernel: y(r) = sum_c f(r,c) x(c). Four unit-stride
/// real dot-product streams per output row.
TSUNAMI_HOT_KERNEL
void matvec_freq(const double* fre, const double* fim, const double* xre,
                 const double* xim, double* yre, double* yim, std::size_t rows,
                 std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) {
    const double* fr = fre + r * cols;
    const double* fi = fim + r * cols;
    double sre = 0.0, sim = 0.0;
    for (std::size_t c = 0; c < cols; ++c) {
      sre += fr[c] * xre[c] - fi[c] * xim[c];
      sim += fr[c] * xim[c] + fi[c] * xre[c];
    }
    yre[r] = sre;
    yim[r] = sim;
  }
}

/// Single-RHS transpose kernel: y(c) = sum_r conj(f(r,c)) x(r). The row
/// broadcast keeps every stream (f row, y) unit-stride.
TSUNAMI_HOT_KERNEL
void matvec_freq_herm(const double* fre, const double* fim, const double* xre,
                      const double* xim, double* yre, double* yim,
                      std::size_t rows, std::size_t cols) {
  std::fill(yre, yre + cols, 0.0);
  std::fill(yim, yim + cols, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    const double* fr = fre + r * cols;
    const double* fi = fim + r * cols;
    const double ar = xre[r], ai = xim[r];
    for (std::size_t c = 0; c < cols; ++c) {
      yre[c] += fr[c] * ar + fi[c] * ai;
      yim[c] += fr[c] * ai - fi[c] * ar;
    }
  }
}

/// Multi-RHS forward GEMM: y(r,v) = sum_c f(r,c) x(c,v), tiled kTileR x
/// kTileV with the accumulators held locally across the whole c sweep.
TSUNAMI_HOT_KERNEL
void gemm_freq(const double* fre, const double* fim, const double* xre,
               const double* xim, double* yre, double* yim, std::size_t rows,
               std::size_t cols, std::size_t nrhs) {
  for (std::size_t r0 = 0; r0 < rows; r0 += kTileR) {
    const std::size_t rl = std::min(kTileR, rows - r0);
    for (std::size_t v0 = 0; v0 < nrhs; v0 += kTileV) {
      const std::size_t vl = std::min(kTileV, nrhs - v0);
      double are[kTileR][kTileV] = {};
      double aim[kTileR][kTileV] = {};
      for (std::size_t c = 0; c < cols; ++c) {
        const double* xr = xre + c * nrhs + v0;
        const double* xi = xim + c * nrhs + v0;
        for (std::size_t rr = 0; rr < rl; ++rr) {
          const double f_re = fre[(r0 + rr) * cols + c];
          const double f_im = fim[(r0 + rr) * cols + c];
          for (std::size_t vv = 0; vv < vl; ++vv) {
            are[rr][vv] += f_re * xr[vv] - f_im * xi[vv];
            aim[rr][vv] += f_re * xi[vv] + f_im * xr[vv];
          }
        }
      }
      for (std::size_t rr = 0; rr < rl; ++rr) {
        double* yr = yre + (r0 + rr) * nrhs + v0;
        double* yi = yim + (r0 + rr) * nrhs + v0;
        for (std::size_t vv = 0; vv < vl; ++vv) {
          yr[vv] = are[rr][vv];
          yi[vv] = aim[rr][vv];
        }
      }
    }
  }
}

/// Multi-RHS transpose GEMM: y(c,v) = sum_r conj(f(r,c)) x(r,v), tiled over
/// output columns x RHS with the r reduction innermost-but-one.
TSUNAMI_HOT_KERNEL
void gemm_freq_herm(const double* fre, const double* fim, const double* xre,
                    const double* xim, double* yre, double* yim,
                    std::size_t rows, std::size_t cols, std::size_t nrhs) {
  for (std::size_t c0 = 0; c0 < cols; c0 += kTileR) {
    const std::size_t cl = std::min(kTileR, cols - c0);
    for (std::size_t v0 = 0; v0 < nrhs; v0 += kTileV) {
      const std::size_t vl = std::min(kTileV, nrhs - v0);
      double are[kTileR][kTileV] = {};
      double aim[kTileR][kTileV] = {};
      for (std::size_t r = 0; r < rows; ++r) {
        const double* xr = xre + r * nrhs + v0;
        const double* xi = xim + r * nrhs + v0;
        const double* fr = fre + r * cols + c0;
        const double* fi = fim + r * cols + c0;
        for (std::size_t cc = 0; cc < cl; ++cc) {
          const double f_re = fr[cc], f_im = fi[cc];
          for (std::size_t vv = 0; vv < vl; ++vv) {
            are[cc][vv] += f_re * xr[vv] + f_im * xi[vv];
            aim[cc][vv] += f_re * xi[vv] - f_im * xr[vv];
          }
        }
      }
      for (std::size_t cc = 0; cc < cl; ++cc) {
        double* yr = yre + (c0 + cc) * nrhs + v0;
        double* yi = yim + (c0 + cc) * nrhs + v0;
        for (std::size_t vv = 0; vv < vl; ++vv) {
          yr[vv] = are[cc][vv];
          yi[vv] = aim[cc][vv];
        }
      }
    }
  }
}

/// Workspace behind the workspace-less apply overloads: per-thread, so the
/// legacy API is allocation-free in steady state AND safe under concurrent
/// callers (each thread owns its buffers).
ToeplitzWorkspace& tls_workspace() {
  static thread_local ToeplitzWorkspace ws;
  return ws;
}

}  // namespace

BlockToeplitz::BlockToeplitz(std::size_t rows, std::size_t cols,
                             std::size_t nblocks,
                             std::span<const double> blocks)
    : rows_(rows),
      cols_(cols),
      nt_(nblocks),
      fft_len_(next_pow2(2 * nblocks)),
      nfreq_(fft_len_ / 2 + 1),
      plan_(fft_len_) {
  if (blocks.size() != rows * cols * nblocks)
    throw std::invalid_argument("BlockToeplitz: block array size mismatch");
  const std::size_t nrc = rows_ * cols_;
  // NumaArray first-touches the slab pages from the pool workers that will
  // stream them on every apply (and zero-fills; every entry is overwritten
  // by the strided FFT writes below).
  fhat_re_ = NumaArray(nfreq_ * nrc);
  fhat_im_ = NumaArray(nfreq_ * nrc);
  // One length-L real FFT per (r, c) entry sequence, batched over entries
  // with one spectrum + FFT scratch slab per loop participant (no per-signal
  // temporaries). Entry (r, c) of block k sits at blocks[k * nrc + rc]:
  // base rc, stride nrc — the strided r2c pack reads it in place.
  TRACE_SCOPE("kernel", "build_spectra");
  const std::size_t scr = plan_.scratch_size();
  const auto nthreads = static_cast<std::size_t>(num_threads());
  std::vector<Complex> fft_scratch(nthreads * scr);
  double* fre = fhat_re_.data();
  double* fim = fhat_im_.data();
  parallel_for_slotted(nrc, 2, [&](std::size_t rc, std::size_t slot) {
    plan_.forward_strided_split(
        blocks.data() + rc, nrc, nt_, fre + rc, fim + rc, nrc,
        std::span<Complex>(fft_scratch.data() + slot * scr, scr));
  });
}

void BlockToeplitz::set_keep_blocks(std::span<const double> blocks) {
  if (blocks.size() != rows_ * cols_ * nt_)
    throw std::invalid_argument("set_keep_blocks: size mismatch");
  blocks_.assign(blocks.begin(), blocks.end());
}

TSUNAMI_HOT_PATH std::size_t
BlockToeplitz::prepare_thread_scratch(ToeplitzWorkspace& ws) const {
  const std::size_t scr = plan_.scratch_size();
  const auto nthreads = static_cast<std::size_t>(num_threads());
  if (ws.fft_.size() < nthreads * scr)
    ws.fft_.resize(nthreads * scr);  // lint: allow(hot-path-alloc) grow-once workspace
  return scr;
}

TSUNAMI_HOT_PATH void BlockToeplitz::forward_channels(
    const double* x, std::size_t nchan, std::size_t nrhs, std::size_t in_ticks,
    ToeplitzWorkspace& ws) const {
  TRACE_SCOPE("kernel", "fft_forward");
  // Signal s = c * nrhs + v lives at x[t * nsig + s]: base s, stride nsig.
  // Spectra land in the split-complex slab at [w * nsig + s].
  const std::size_t nsig = nchan * nrhs;
  if (ws.xhat_re_.size() < nfreq_ * nsig) {
    ws.xhat_re_.resize(nfreq_ * nsig);  // lint: allow(hot-path-alloc) grow-once workspace
    ws.xhat_im_.resize(nfreq_ * nsig);  // lint: allow(hot-path-alloc) grow-once workspace
  }
  const std::size_t scr = prepare_thread_scratch(ws);
  double* xre = ws.xhat_re_.data();
  double* xim = ws.xhat_im_.data();
  Complex* fft_base = ws.fft_.data();
  parallel_for_slotted(nsig, 2, [&](std::size_t s, std::size_t slot) {
    // The untangle pass of the r2c transform writes the split slab planes
    // directly (bin stride nsig): no AoS spectrum staging.
    plan_.forward_strided_split(
        x + s, nsig, in_ticks, xre + s, xim + s, nsig,
        std::span<Complex>(fft_base + slot * scr, scr));
  });
}

TSUNAMI_HOT_PATH void BlockToeplitz::inverse_channels(
    std::size_t nchan, std::size_t nrhs, std::span<double> y,
    ToeplitzWorkspace& ws) const {
  TRACE_SCOPE("kernel", "fft_inverse");
  const std::size_t nsig = nchan * nrhs;
  const std::size_t scr = prepare_thread_scratch(ws);
  const double* yre = ws.yhat_re_.data();
  const double* yim = ws.yhat_im_.data();
  Complex* fft_base = ws.fft_.data();
  double* yp = y.data();
  parallel_for_slotted(nsig, 2, [&](std::size_t s, std::size_t slot) {
    // The c2r inverse reads the split slab planes directly, rebuilds the
    // redundant half spectrum implicitly, and emits only the nt_ retained
    // (real) samples, scattered time-major.
    plan_.inverse_strided_split(
        yre + s, yim + s, nsig, yp + s, nsig, nt_,
        std::span<Complex>(fft_base + slot * scr, scr));
  });
}

TSUNAMI_HOT_PATH void BlockToeplitz::apply_impl(const double* x, double* y,
                                                std::size_t nrhs,
                                                std::size_t in_ticks,
                                                bool transpose,
                                                ToeplitzWorkspace& ws) const {
  TRACE_SCOPE("kernel", "toeplitz_apply");
  const std::size_t nin = transpose ? rows_ : cols_;
  const std::size_t nout = transpose ? cols_ : rows_;
  forward_channels(x, nin, nrhs, in_ticks, ws);
  const std::size_t ylen = nfreq_ * nout * nrhs;
  if (ws.yhat_re_.size() < ylen) {
    ws.yhat_re_.resize(ylen);  // lint: allow(hot-path-alloc) grow-once workspace
    ws.yhat_im_.resize(ylen);  // lint: allow(hot-path-alloc) grow-once workspace
  }
  const double* fre = fhat_re_.data();
  const double* fim = fhat_im_.data();
  const double* xre = ws.xhat_re_.data();
  const double* xim = ws.xhat_im_.data();
  double* yre = ws.yhat_re_.data();
  double* yim = ws.yhat_im_.data();
  const std::size_t rows = rows_, cols = cols_;
  // Per-frequency block GEMM — the paper's batched-BLAS kernel. Every
  // frequency is independent; each writes a disjoint slab slice, so the
  // result is deterministic for any thread count.
  {
    TRACE_SCOPE("kernel", "freq_gemm");
    parallel_for(nfreq_, [&](std::size_t w) {
      const double* fwre = fre + w * rows * cols;
      const double* fwim = fim + w * rows * cols;
      const double* xwre = xre + w * nin * nrhs;
      const double* xwim = xim + w * nin * nrhs;
      double* ywre = yre + w * nout * nrhs;
      double* ywim = yim + w * nout * nrhs;
      if (transpose) {
        if (nrhs == 1)
          matvec_freq_herm(fwre, fwim, xwre, xwim, ywre, ywim, rows, cols);
        else
          gemm_freq_herm(fwre, fwim, xwre, xwim, ywre, ywim, rows, cols, nrhs);
      } else {
        if (nrhs == 1)
          matvec_freq(fwre, fwim, xwre, xwim, ywre, ywim, rows, cols);
        else
          gemm_freq(fwre, fwim, xwre, xwim, ywre, ywim, rows, cols, nrhs);
      }
    });
  }
  inverse_channels(nout, nrhs, std::span<double>(y, nt_ * nout * nrhs), ws);
}

TSUNAMI_HOT_PATH void BlockToeplitz::apply(std::span<const double> x,
                                           std::span<double> y,
                                           ToeplitzWorkspace& ws) const {
  if (x.size() != input_dim() || y.size() != output_dim())
    throw std::invalid_argument("BlockToeplitz::apply: size mismatch");
  apply_impl(x.data(), y.data(), 1, nt_, /*transpose=*/false, ws);
}

TSUNAMI_HOT_PATH void BlockToeplitz::apply(std::span<const double> x,
                                           std::span<double> y) const {
  apply(x, y, tls_workspace());
}

TSUNAMI_HOT_PATH void BlockToeplitz::apply_transpose(
    std::span<const double> x, std::span<double> y,
    ToeplitzWorkspace& ws) const {
  if (x.size() != output_dim() || y.size() != input_dim())
    throw std::invalid_argument("BlockToeplitz::apply_transpose: mismatch");
  apply_impl(x.data(), y.data(), 1, nt_, /*transpose=*/true, ws);
}

TSUNAMI_HOT_PATH void BlockToeplitz::apply_transpose(
    std::span<const double> x, std::span<double> y) const {
  apply_transpose(x, y, tls_workspace());
}

TSUNAMI_HOT_PATH void BlockToeplitz::apply_transpose_prefix(
    std::span<const double> x, std::size_t ticks, std::span<double> y) const {
  apply_transpose_prefix(x, ticks, y, tls_workspace());
}

TSUNAMI_HOT_PATH void BlockToeplitz::apply_transpose_prefix(
    std::span<const double> x, std::size_t ticks, std::span<double> y,
    ToeplitzWorkspace& ws) const {
  if (ticks > nt_ || x.size() < ticks * rows_)
    throw std::invalid_argument(
        "BlockToeplitz::apply_transpose_prefix: bad prefix");
  if (y.size() != input_dim())
    throw std::invalid_argument(
        "BlockToeplitz::apply_transpose_prefix: output size mismatch");
  if (ticks == 0) {
    // An empty prefix maps to exactly zero — and x may be an empty span
    // whose data() is null, which must not reach the strided FFT pack.
    std::fill(y.begin(), y.end(), 0.0);
    return;
  }
  apply_impl(x.data(), y.data(), 1, ticks, /*transpose=*/true, ws);
}

TSUNAMI_HOT_PATH void BlockToeplitz::apply_many(const Matrix& x_cols,
                                                Matrix& y_cols,
                                                ToeplitzWorkspace& ws) const {
  const std::size_t nrhs = x_cols.cols();
  if (x_cols.rows() != input_dim())
    throw std::invalid_argument("apply_many: input rows mismatch");
  if (y_cols.rows() != output_dim() || y_cols.cols() != nrhs)
    y_cols = Matrix(output_dim(), nrhs);
  if (nrhs == 0) return;
  apply_impl(x_cols.data(), y_cols.data(), nrhs, nt_, /*transpose=*/false, ws);
}

TSUNAMI_HOT_PATH void BlockToeplitz::apply_many(const Matrix& x_cols,
                                                Matrix& y_cols) const {
  apply_many(x_cols, y_cols, tls_workspace());
}

TSUNAMI_HOT_PATH void BlockToeplitz::apply_transpose_many(
    const Matrix& x_cols, Matrix& y_cols, ToeplitzWorkspace& ws) const {
  const std::size_t nrhs = x_cols.cols();
  if (x_cols.rows() != output_dim())
    throw std::invalid_argument("apply_transpose_many: input rows mismatch");
  if (y_cols.rows() != input_dim() || y_cols.cols() != nrhs)
    y_cols = Matrix(input_dim(), nrhs);
  if (nrhs == 0) return;
  apply_impl(x_cols.data(), y_cols.data(), nrhs, nt_, /*transpose=*/true, ws);
}

TSUNAMI_HOT_PATH void BlockToeplitz::apply_transpose_many(
    const Matrix& x_cols, Matrix& y_cols) const {
  apply_transpose_many(x_cols, y_cols, tls_workspace());
}

void BlockToeplitz::apply_dense_reference(std::span<const double> x,
                                          std::span<double> y) const {
  if (blocks_.empty())
    throw std::logic_error(
        "apply_dense_reference: call set_keep_blocks first");
  if (x.size() != input_dim() || y.size() != output_dim())
    throw std::invalid_argument("apply_dense_reference: size mismatch");
  std::fill(y.begin(), y.end(), 0.0);
  for (std::size_t i = 0; i < nt_; ++i)
    for (std::size_t j = 0; j <= i; ++j) {
      const double* fk = blocks_.data() + (i - j) * rows_ * cols_;
      const double* xj = x.data() + j * cols_;
      double* yi = y.data() + i * rows_;
      for (std::size_t r = 0; r < rows_; ++r) {
        double s = 0.0;
        const double* frow = fk + r * cols_;
        for (std::size_t c = 0; c < cols_; ++c) s += frow[c] * xj[c];
        yi[r] += s;
      }
    }
}

}  // namespace tsunami
