#pragma once

// Phase 2: the data-space Hessian.
//
// The Sherman-Morrison-Woodbury identity moves the inverse operator from the
// ~billion-dimensional parameter space to the data space (SecV-B):
//   Gamma_post = Gamma_prior - G* K^{-1} G,     G = F Gamma_prior,
//   K = Gamma_noise + F Gamma_prior F*          ("data-space Hessian"),
// and the MAP point becomes  m_map = G* K^{-1} d_obs.
//
// K is (Nd Nt) x (Nd Nt) dense. The paper forms it one FFT Hessian matvec
// per column (Table III: "form K: 252k x 24 ms"). Here F's shift invariance
// gives it from one product of F's first block column (prior_product), and
// it is then Cholesky-factorized (cuSOLVERMp -> DenseCholesky).

#include <cstddef>
#include <memory>
#include <span>

#include "core/sensor_mask.hpp"
#include "linalg/dense.hpp"
#include "linalg/dense_cholesky.hpp"
#include "prior/matern_prior.hpp"
#include "util/timer.hpp"

namespace tsunami {

struct P2oMap;

/// Gaussian observation-noise model: Gamma_noise = sigma^2 I.
struct NoiseModel {
  double sigma = 1.0;
  [[nodiscard]] double variance() const { return sigma * sigma; }
};

/// Relative noise calibration: sigma = level * max_i |d_i| (the paper's "1%
/// relative added noise").
[[nodiscard]] NoiseModel relative_noise(std::span<const double> d,
                                        double level);

class DataSpaceHessian {
 public:
  /// Forms K = Gamma_noise + F Gamma_prior F^T from F's blocks (the lower
  /// triangle of prior_product(f, f), mirrored, so K is exactly symmetric)
  /// and factorizes it. Records "form K" / "factorize K" timer samples.
  DataSpaceHessian(const P2oMap& f, const MaternPrior& prior,
                   const NoiseModel& noise, TimerRegistry* timers = nullptr);

  /// Adopt a previously computed Cholesky factor (the warm-start path: the
  /// artifact bundle ships L, packed, not K; degraded mode edits a copy).
  /// Solves are bit-identical to the cold-built object's; the formed K
  /// itself is not retained (it is redundant given L), so matrix() throws.
  [[nodiscard]] static DataSpaceHessian from_factor(DenseCholesky l,
                                                    const NoiseModel& noise);

  [[nodiscard]] std::size_t dim() const { return chol_->dim(); }
  /// The formed K. Only retained on the cold (form + factorize) path;
  /// throws std::logic_error on a warm-started (from_factor) instance.
  [[nodiscard]] const Matrix& matrix() const;
  [[nodiscard]] const DenseCholesky& cholesky() const { return *chol_; }
  [[nodiscard]] const NoiseModel& noise() const { return noise_; }

  /// y = K^{-1} x.
  void solve(std::span<const double> x, std::span<double> y) const;

  /// Degraded-mode factor edit (ISSUE 10): replace every observation row of
  /// a dropped channel by a pure-noise row, in place on the Cholesky factor.
  /// Rows p with mask.masked(p % channels_per_tick) have K's row/column p
  /// rewritten to sigma^2 e_p — exactly the Hessian of the network that never
  /// had those channels, at full dimension — via one rank-2
  /// (update + hyperbolic downdate) pair per row: O(r n^2) for r dropped
  /// rows versus O(n^3) refactorization. Already-decoupled rows are skipped,
  /// so the edit is idempotent. Works on warm (from_factor) instances; the
  /// retained K of a cold instance is kept consistent.
  void decouple_channels(const SensorMask& mask, std::size_t channels_per_tick);

 private:
  DataSpaceHessian() = default;  ///< for from_factor

  Matrix k_;  ///< empty on the from_factor path
  std::unique_ptr<DenseCholesky> chol_;
  NoiseModel noise_;
};

/// A Gamma_prior B^T for two Phase 1 maps with the same Nt and Nm: the
/// (Nt a.nrows) x (Nt b.nrows) matrix, time-major on both sides. K, V and W
/// of phases 2-3 are all of this form. A and B are block lower-triangular
/// Toeplitz and Gamma_prior is block diagonal with one spatial block P, so
/// block (i, j) of the result is sum_{l <= min(i,j)} A_{i-l} P B_{j-l}^T:
/// the diagonal prefix sum of the blocks M(i, j) = A_i P B_j^T. P is applied
/// to the Nt a.nrows rows of A's blocks, one gemm against B's gives every
/// M(i, j), and the displacement identity Out(i, j) = M(i, j) +
/// Out(i-1, j-1) fills the result row block by row block, so the bits do
/// not depend on the worker count.
[[nodiscard]] Matrix prior_product(const P2oMap& a, const P2oMap& b,
                                   const MaternPrior& prior);

}  // namespace tsunami
