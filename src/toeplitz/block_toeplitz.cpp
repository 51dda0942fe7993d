#include "toeplitz/block_toeplitz.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"

namespace tsunami {

namespace {

/// Forward kernel: y(r) = sum_c f(r,c) x(c). Four unit-stride
/// real dot-product streams per output row.
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

/// Transpose kernel: y(c) = sum_r conj(f(r,c)) x(r). The row
/// broadcast keeps every stream (f row, y) unit-stride.
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
    const double* x, std::size_t nchan, std::size_t in_ticks,
    ToeplitzWorkspace& ws) const {
  TRACE_SCOPE("kernel", "fft_forward");
  // Channel c lives at x[t * nchan + c]: base c, stride nchan. Spectra land
  // in the split-complex slab at [w * nchan + c].
  if (ws.xhat_re_.size() < nfreq_ * nchan) {
    ws.xhat_re_.resize(nfreq_ * nchan);  // lint: allow(hot-path-alloc) grow-once workspace
    ws.xhat_im_.resize(nfreq_ * nchan);  // lint: allow(hot-path-alloc) grow-once workspace
  }
  const std::size_t scr = prepare_thread_scratch(ws);
  double* xre = ws.xhat_re_.data();
  double* xim = ws.xhat_im_.data();
  Complex* fft_base = ws.fft_.data();
  parallel_for_slotted(nchan, 2, [&](std::size_t c, std::size_t slot) {
    // The untangle pass of the r2c transform writes the split slab planes
    // directly (bin stride nchan): no AoS spectrum staging.
    plan_.forward_strided_split(
        x + c, nchan, in_ticks, xre + c, xim + c, nchan,
        std::span<Complex>(fft_base + slot * scr, scr));
  });
}

TSUNAMI_HOT_PATH void BlockToeplitz::inverse_channels(
    std::size_t nchan, std::span<double> y, ToeplitzWorkspace& ws) const {
  TRACE_SCOPE("kernel", "fft_inverse");
  const std::size_t scr = prepare_thread_scratch(ws);
  const double* yre = ws.yhat_re_.data();
  const double* yim = ws.yhat_im_.data();
  Complex* fft_base = ws.fft_.data();
  double* yp = y.data();
  parallel_for_slotted(nchan, 2, [&](std::size_t c, std::size_t slot) {
    // The c2r inverse reads the split slab planes directly, rebuilds the
    // redundant half spectrum implicitly, and emits only the nt_ retained
    // (real) samples, scattered time-major.
    plan_.inverse_strided_split(
        yre + c, yim + c, nchan, yp + c, nchan, nt_,
        std::span<Complex>(fft_base + slot * scr, scr));
  });
}

TSUNAMI_HOT_PATH void BlockToeplitz::apply_impl(const double* x, double* y,
                                                std::size_t in_ticks,
                                                bool transpose,
                                                ToeplitzWorkspace& ws) const {
  TRACE_SCOPE("kernel", "toeplitz_apply");
  const std::size_t nin = transpose ? rows_ : cols_;
  const std::size_t nout = transpose ? cols_ : rows_;
  forward_channels(x, nin, in_ticks, ws);
  const std::size_t ylen = nfreq_ * nout;
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
  // Per-frequency block matvec — the paper's batched-BLAS kernel. Every
  // frequency is independent; each writes a disjoint slab slice, so the
  // result is deterministic for any thread count.
  {
    TRACE_SCOPE("kernel", "freq_gemm");
    parallel_for(nfreq_, [&](std::size_t w) {
      const double* fwre = fre + w * rows * cols;
      const double* fwim = fim + w * rows * cols;
      const double* xwre = xre + w * nin;
      const double* xwim = xim + w * nin;
      double* ywre = yre + w * nout;
      double* ywim = yim + w * nout;
      if (!transpose)
        matvec_freq(fwre, fwim, xwre, xwim, ywre, ywim, rows, cols);
      else
        matvec_freq_herm(fwre, fwim, xwre, xwim, ywre, ywim, rows, cols);
    });
  }
  inverse_channels(nout, std::span<double>(y, nt_ * nout), ws);
}

TSUNAMI_HOT_PATH void BlockToeplitz::apply(std::span<const double> x,
                                           std::span<double> y,
                                           ToeplitzWorkspace& ws) const {
  if (x.size() != input_dim() || y.size() != output_dim())
    throw std::invalid_argument("BlockToeplitz::apply: size mismatch");
  apply_impl(x.data(), y.data(), nt_, /*transpose=*/false, ws);
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
  apply_impl(x.data(), y.data(), nt_, /*transpose=*/true, ws);
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
  apply_impl(x.data(), y.data(), ticks, /*transpose=*/true, ws);
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
