#pragma once

// Phase 3 + the QoI half of Phase 4: goal-oriented posterior prediction.
//
// Precomputes (Table III rows):
//   V  = F Gq*  = F Gamma_prior Fq^T          (data_dim x qoi_dim),
//   W  = Fq Gq* = Fq Gamma_prior Fq^T         (qoi_dim  x qoi_dim),
//   Gamma_post(q) = W - V^T K^{-1} V          ("compute Gamma_post(q)"),
//   R  = L^{-1} V                             ("compute R"),
// with V and W from the first block columns of F and Fq (prior_product) and
// L the Cholesky factor of K. Online, the data-to-QoI map Q = V^T K^{-1} is
// applied factored, q_map = R^T (L^{-1} d_obs), with 95% credible intervals
// from diag(Gamma_post(q)) — deployable "entirely without any HPC
// infrastructure" (SecVIII). These are the streaming forecast's kernels
// (core/streaming_assimilator.hpp), so the batch forecast is bitwise the
// streamed final tick.

#include <cstddef>
#include <span>
#include <vector>

#include "core/data_space_hessian.hpp"
#include "linalg/dense.hpp"
#include "prior/matern_prior.hpp"
#include "util/timer.hpp"

namespace tsunami {

/// A wave-height forecast with uncertainty, time-major over (Nt x Nq).
struct Forecast {
  std::size_t num_gauges = 0;
  std::size_t num_times = 0;
  std::vector<double> mean;     ///< q_map
  std::vector<double> stddev;   ///< sqrt(diag Gamma_post(q))
  std::vector<double> lower95;  ///< mean - 1.96 std
  std::vector<double> upper95;  ///< mean + 1.96 std
  /// Degraded-mode provenance (ISSUE 10): true when the producing
  /// assimilator has dropped sensors or projected-out invalid ticks — the
  /// forecast is still an *exact* posterior, but over the surviving network.
  bool degraded = false;
  std::size_t dropped_channels = 0;  ///< currently masked channels

  [[nodiscard]] double at(const std::vector<double>& field, std::size_t t,
                          std::size_t g) const {
    return field[t * num_gauges + g];
  }
};

class QoiPredictor {
 public:
  /// Phase 3 precomputation: V = prior_product(f, fq) and W =
  /// prior_product(fq, fq), then Gamma_post(q) and R. Records "compute
  /// Gamma_post(q)" / "compute R" timer samples.
  QoiPredictor(const P2oMap& f, const P2oMap& fq, const MaternPrior& prior,
               const DataSpaceHessian& hessian,
               TimerRegistry* timers = nullptr);

  /// Warm start from the shipped Phase 3 products, Gamma_post(q) and the
  /// forecast slab R, loaded from an artifact bundle instead of recomputed.
  /// predict_whitened() on the result, and every streaming engine over it,
  /// is bit-identical to the cold-built predictor's. Throws
  /// std::invalid_argument unless Gamma_post(q) is square and both have
  /// num_gauges * num_times QoI columns.
  QoiPredictor(std::size_t num_gauges, std::size_t num_times, Matrix qoi_cov,
               Matrix forecast_slab);

  [[nodiscard]] std::size_t qoi_dim() const { return cov_q_.rows(); }
  [[nodiscard]] std::size_t data_dim() const { return r_.rows(); }
  [[nodiscard]] std::size_t num_gauges() const { return nq_; }
  [[nodiscard]] std::size_t num_times() const { return nt_; }

  /// Online: q with CIs from whitened data z = L^{-1} d_obs, bypassing the
  /// parameter space. The mean is R^T z, summed from zero by one
  /// accumulate_rows sweep. Throws std::invalid_argument on a wrong length.
  [[nodiscard]] Forecast predict_whitened(std::span<const double> z) const;

  /// Posterior QoI covariance. With R it is everything the streaming
  /// engine needs (the prior QoI variances are diag Gamma_post(q) + sum_j
  /// R_ji^2), so the constructor temporaries V and W are NOT retained.
  [[nodiscard]] const Matrix& qoi_covariance() const { return cov_q_; }

  /// The forecast slab R = L^{-1} V, data_dim x qoi_dim (L the Cholesky
  /// factor of K): row j is what whitened observation j adds to the QoI
  /// mean. predict_whitened and every full-network streaming engine sweep it.
  [[nodiscard]] const Matrix& forecast_slab() const { return r_; }

 private:
  std::size_t nq_, nt_;
  Matrix cov_q_;  ///< Gamma_post(q)
  Matrix r_;      ///< R = L^{-1} V; row j contiguous
  std::vector<double> std_q_;
};

}  // namespace tsunami
