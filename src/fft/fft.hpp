#pragma once

// From-scratch FFT library (the {cu,roc}FFT stand-in for FFTMatvec).
//
// The block-Toeplitz engine embeds every channel's time series in a
// circulant of length next_pow2(2 Nt), so every transform it runs has a
// power-of-two length, and that is the only length provided: an iterative
// radix-2 Cooley-Tukey complex transform (FftPlan), which the real-input
// plan runs at half length.
//
// Real-input transforms: the block-Toeplitz matvec transforms purely real
// signals, whose spectra are conjugate-symmetric — a full complex FFT wastes
// half its flops and bandwidth on redundant bins. RealFftPlan is the exact
// rearrangement (no approximation) that avoids this: one real signal of
// length n through ONE complex FFT of length n/2 (pack even samples into the
// real lane, odd samples into the imaginary lane, then untangle with a
// twiddle pass) — the r2c/c2r path used by the Toeplitz engine, ~2x cheaper
// than the complex plan.
//
// Zero-allocation execution: the complex transform runs in place, and the
// real plan works in caller-owned scratch (scratch_size() complex
// elements), so batch drivers reuse one scratch slab per thread and the hot
// apply paths never touch the heap.

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

namespace tsunami {

using Complex = std::complex<double>;

/// Precomputed plan for in-place complex transforms of a fixed power-of-two
/// length. Immutable after construction; forward/inverse are const and
/// thread-safe, so one plan can serve all worker threads of a batch.
class FftPlan {
 public:
  /// Throws std::invalid_argument unless `length` is a power of two.
  explicit FftPlan(std::size_t length);

  [[nodiscard]] std::size_t length() const { return n_; }

  /// In-place forward DFT: X_k = sum_j x_j exp(-2 pi i j k / n).
  void forward(std::span<Complex> data) const;

  /// In-place inverse DFT (includes the 1/n normalization).
  void inverse(std::span<Complex> data) const;

 private:
  void execute(std::span<Complex> data, bool inverse) const;

  std::size_t n_;
  std::vector<std::size_t> bitrev_;
  std::vector<Complex> twiddle_;      // forward twiddles, n/2 entries
};

/// Real-input transform plan of fixed power-of-two length n via one complex
/// FFT of length n/2 (the packing trick). Produces/consumes the
/// non-redundant half spectrum of n/2 + 1 bins; the redundant upper bins are
/// implied by conjugate symmetry. Immutable after construction; both
/// transforms are const and thread-safe given per-thread scratch.
///
/// Strided entry points serve the Toeplitz engine directly: channel signals
/// live interleaved in time-major slabs, and the pack/unpack pass absorbs
/// the gather/scatter, so no staging copy of the signal is ever made.
class RealFftPlan {
 public:
  /// `length` must be a power of two >= 2 (the Toeplitz circulant embedding
  /// always is); throws std::invalid_argument otherwise.
  explicit RealFftPlan(std::size_t length);

  [[nodiscard]] std::size_t length() const { return n_; }
  /// Number of retained spectrum bins: n/2 + 1.
  [[nodiscard]] std::size_t spectrum_size() const { return n_ / 2 + 1; }
  /// Complex scratch elements required by forward/inverse.
  [[nodiscard]] std::size_t scratch_size() const { return n_ / 2; }

  /// Half spectrum of the real signal x[t * xstride], t in [0, nsamples),
  /// zero-padded to length n. Split-complex output: bin k lands at
  /// re[k * sstride] / im[k * sstride] (strides in doubles). The untangle
  /// pass writes the planes directly — no AoS spectrum staging between the
  /// FFT and a frequency-major slab.
  void forward_strided_split(const double* x, std::size_t xstride,
                             std::size_t nsamples, double* re, double* im,
                             std::size_t sstride,
                             std::span<Complex> scratch) const;

  /// Real signal from its split-complex half spectrum (conjugate symmetry
  /// assumed; the imaginary parts of bins 0 and n/2 are ignored as they are
  /// structurally zero): the re-tangle pass reads the planes directly, and
  /// only x[t * xstride] for t in [0, nsamples) is written.
  void inverse_strided_split(const double* re, const double* im,
                             std::size_t sstride, double* x,
                             std::size_t xstride, std::size_t nsamples,
                             std::span<Complex> scratch) const;

 private:
  std::size_t n_;
  FftPlan half_;                   // complex plan of length n/2
  std::vector<Complex> untangle_;  // exp(-2 pi i k / n), k = 0..n/2
};

/// Naive O(n^2) DFT used as the test oracle.
[[nodiscard]] std::vector<Complex> dft_reference(std::span<const Complex> x,
                                                 bool inverse = false);

/// Smallest power of two >= n.
[[nodiscard]] std::size_t next_pow2(std::size_t n);

}  // namespace tsunami
