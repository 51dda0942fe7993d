#pragma once

// FFT-based block lower-triangular Toeplitz matvec engine — the open-source
// "FFTMatvec" component of the paper (SecV-A, [26]), reimplemented for CPU.
//
// A block lower-triangular Toeplitz matrix
//     T = [ F_0
//           F_1  F_0
//           ...       ...
//           F_{Nt-1} ... F_1  F_0 ],   F_k in R^{rows x cols},
// is embedded in a block circulant of period L >= 2 Nt - 1 which the DFT
// block-diagonalizes: applying T to a time-major vector x reduces to
//   (i)  batched length-L REAL-input FFTs of the cols input channels
//        (r2c via the half-length packing trick — the inputs are real, so a
//        full complex transform would waste 2x flops/bandwidth),
//   (ii) an independent (rows x cols) complex matvec per frequency — the
//        cuBLAS-batched kernel of the paper; here a cache-blocked
//        split-complex micro-kernel under a pool-parallel loop,
//   (iii) batched inverse real-output FFTs of the rows output channels.
// The transpose (block UPPER triangular Toeplitz, cyclic correlation) uses
// the conjugate spectrum, no extra storage. Real-input symmetry means only
// L/2 + 1 frequencies are kept.
//
// Frequency-domain data lives in SPLIT-COMPLEX layout — separate real and
// imaginary planes, frequency-major — so the per-frequency block matvec is
// four unit-stride real FMA streams the compiler vectorizes, instead of
// interleaved std::complex AoS.
//
// Cost per matvec: O((rows + cols) L log L + L rows cols) versus a pair of
// PDE solves for the same Hessian action — the source of the paper's
// 260,000x matvec speedup (bench_paper's SecVII-C section measures ours).

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

#include "fft/fft.hpp"
#include "parallel/numa.hpp"
#include "util/hot_path.hpp"

namespace tsunami {

/// Reusable scratch for BlockToeplitz apply paths: the split-complex
/// frequency slabs plus per-loop-participant FFT scratch. Buffers grow on
/// demand and never shrink, so after the first call at a given shape no
/// apply allocates. One workspace serves operators of any shape (it resizes
/// to the largest seen).
///
/// Ownership rule: a workspace belongs to ONE caller thread at a time.
/// Concurrent applies (e.g. service workers draining different events) must
/// each hold their own workspace; the operator itself is immutable and
/// freely shared. The workspace-less apply overloads use a thread_local
/// workspace internally, so they are both allocation-free in steady state
/// and safe to call from any number of threads.
class ToeplitzWorkspace {
 public:
  ToeplitzWorkspace() = default;

 private:
  friend class BlockToeplitz;
  std::vector<double> xhat_re_, xhat_im_;  ///< input slab, [w*nchan+c]
  std::vector<double> yhat_re_, yhat_im_;  ///< output slab, same layout
  std::vector<Complex> fft_;               ///< per-slot: real-plan scratch
};

class BlockToeplitz {
 public:
  /// `blocks` holds F_k row-major, k-major: blocks[(k*rows + r)*cols + c].
  /// Keeps only the Fourier representation (half spectrum, split-complex).
  BlockToeplitz(std::size_t rows, std::size_t cols, std::size_t nblocks,
                std::span<const double> blocks);

  [[nodiscard]] std::size_t block_rows() const { return rows_; }
  [[nodiscard]] std::size_t block_cols() const { return cols_; }
  [[nodiscard]] std::size_t num_blocks() const { return nt_; }
  /// Full operator dimensions.
  [[nodiscard]] std::size_t output_dim() const { return rows_ * nt_; }
  [[nodiscard]] std::size_t input_dim() const { return cols_ * nt_; }

  /// y = T x; x time-major (nt blocks of cols), y time-major (nt x rows).
  TSUNAMI_HOT_PATH void apply(std::span<const double> x,
                              std::span<double> y) const;
  TSUNAMI_HOT_PATH void apply(std::span<const double> x, std::span<double> y,
                              ToeplitzWorkspace& ws) const;

  /// y = T^T x; x time-major (nt x rows), y time-major (nt x cols).
  TSUNAMI_HOT_PATH void apply_transpose(std::span<const double> x,
                                        std::span<double> y) const;
  TSUNAMI_HOT_PATH void apply_transpose(std::span<const double> x,
                                        std::span<double> y,
                                        ToeplitzWorkspace& ws) const;

  /// y = T^T [x; 0]: x holds only the first `ticks` time blocks (ticks*rows
  /// values); the remaining blocks are implicitly zero. Exactly equal to
  /// zero-padding x to output_dim() and calling apply_transpose, but the
  /// padded copy is never materialized — the FFT pack pass zero-fills
  /// directly. This is the adjoint the streaming (truncated-posterior) path
  /// needs at every tick.
  TSUNAMI_HOT_PATH void apply_transpose_prefix(std::span<const double> x,
                                               std::size_t ticks,
                                               std::span<double> y,
                                               ToeplitzWorkspace& ws) const;
  TSUNAMI_HOT_PATH void apply_transpose_prefix(std::span<const double> x,
                                               std::size_t ticks,
                                               std::span<double> y) const;

  /// Fourier-domain storage footprint (the paper's O(Nm Nd Nt) compact
  /// representation; here 2x for the half-complex spectrum).
  [[nodiscard]] std::size_t storage_bytes() const {
    return (fhat_re_.size() + fhat_im_.size()) * sizeof(double);
  }

  /// O(nt^2 rows cols) dense reference used by tests and the "conventional"
  /// side of benchmarks. Requires the original blocks (kept only if
  /// `keep_blocks` was set).
  void apply_dense_reference(std::span<const double> x,
                             std::span<double> y) const;
  void set_keep_blocks(std::span<const double> blocks);

 private:
  /// Strided real-input FFTs of `nchan` interleaved channels into the
  /// split-complex slab; reads `in_ticks` time blocks (zero-pads the rest).
  TSUNAMI_HOT_PATH void forward_channels(const double* x, std::size_t nchan,
                                         std::size_t in_ticks,
                                         ToeplitzWorkspace& ws) const;
  /// Inverse real-output FFTs of the yhat slab back into time-major y.
  TSUNAMI_HOT_PATH void inverse_channels(std::size_t nchan,
                                         std::span<double> y,
                                         ToeplitzWorkspace& ws) const;
  /// Grows the per-slot FFT scratch in `ws` for the current plan.
  TSUNAMI_HOT_PATH std::size_t
  prepare_thread_scratch(ToeplitzWorkspace& ws) const;

  TSUNAMI_HOT_PATH void apply_impl(const double* x, double* y,
                                   std::size_t in_ticks, bool transpose,
                                   ToeplitzWorkspace& ws) const;

  std::size_t rows_, cols_, nt_;
  std::size_t fft_len_;   ///< L = next_pow2(2 nt)
  std::size_t nfreq_;     ///< L/2 + 1
  RealFftPlan plan_;
  /// Split-complex block spectra, frequency-major:
  /// fhat_re_[(w * rows + r) * cols + c] (imaginary plane likewise).
  /// NumaArray: pages first-touched by the workers that stream them.
  NumaArray fhat_re_, fhat_im_;
  std::vector<double> blocks_;  ///< optional time-domain copy (tests)
};

}  // namespace tsunami
