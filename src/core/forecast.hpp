#pragma once

// Phase 3 + the QoI half of Phase 4: goal-oriented posterior prediction.
//
// Precomputes (Table III rows):
//   V  = F Gq*  = F Gamma_prior Fq^T          (data_dim x qoi_dim),
//   W  = Fq Gq* = Fq Gamma_prior Fq^T         (qoi_dim  x qoi_dim),
//   Gamma_post(q) = W - V^T K^{-1} V          ("compute Gamma_post(q)"),
//   Q  = V^T K^{-1}                           ("compute Q"),
//   R  = L^{-1} V = L^T Q^T                   ("compute R"),
// with V and W from the first block columns of F and Fq (prior_product),
// so that online prediction is a single dense matvec q_map = Q d_obs with
// 95% credible intervals from diag(Gamma_post(q)) — deployable "entirely
// without any HPC infrastructure" (SecVIII). R is the streaming forecast
// slab (core/streaming_assimilator.hpp): it costs O(n^2 qoi_dim) flops to
// derive and O(n qoi_dim) bytes to ship, so it ships with Q.

#include <cstddef>
#include <span>
#include <vector>

#include "core/data_space_hessian.hpp"
#include "linalg/dense.hpp"
#include "prior/matern_prior.hpp"
#include "toeplitz/block_toeplitz.hpp"
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
  /// prior_product(fq, fq), then Gamma_post(q), Q and R. Records "compute
  /// Gamma_post(q)" / "compute Q" / "compute R" timer samples.
  QoiPredictor(const P2oMap& f, const P2oMap& fq, const MaternPrior& prior,
               const DataSpaceHessian& hessian,
               TimerRegistry* timers = nullptr);

  /// Warm start from the shipped Phase 3 products: the dense data-to-QoI
  /// map Q, Gamma_post(q) and the forecast slab R, loaded from an artifact
  /// bundle instead of recomputed. predict() on the result, and every
  /// streaming engine over it, is bit-identical to the cold-built
  /// predictor's. `fq` is still needed for apply_fq_mean (and its block
  /// shape defines the gauge/time split); its blocks ship in the bundle.
  /// Throws std::invalid_argument on a shape mismatch.
  QoiPredictor(const BlockToeplitz& fq, Matrix data_to_qoi, Matrix qoi_cov,
               Matrix forecast_slab);

  [[nodiscard]] std::size_t qoi_dim() const { return q_map_op_.rows(); }
  [[nodiscard]] std::size_t data_dim() const { return q_map_op_.cols(); }
  [[nodiscard]] std::size_t num_gauges() const { return nq_; }
  [[nodiscard]] std::size_t num_times() const { return nt_; }

  /// Online: q with CIs directly from data (bypasses the parameter space).
  [[nodiscard]] Forecast predict(std::span<const double> d_obs) const;

  /// The dense data-to-QoI operator Q (for export / deployment).
  [[nodiscard]] const Matrix& data_to_qoi() const { return q_map_op_; }

  /// Posterior QoI covariance. With R it is everything the streaming
  /// engine needs (the prior QoI variances are diag Gamma_post(q) + sum_j
  /// R_ji^2), so the constructor temporaries V and W are NOT retained.
  [[nodiscard]] const Matrix& qoi_covariance() const { return cov_q_; }

  /// The forecast slab R = L^{-1} V = L^T Q^T, data_dim x qoi_dim (L the
  /// Cholesky factor of K): row j is what whitened observation j adds to
  /// the QoI mean. Every full-network streaming engine sweeps it.
  [[nodiscard]] const Matrix& forecast_slab() const { return r_; }

  /// Consistency check value: q from Fq m (used by tests to confirm
  /// Q d == Fq m_map).
  void apply_fq_mean(std::span<const double> m, std::span<double> q) const;

 private:
  const BlockToeplitz& fq_;
  std::size_t nq_, nt_;
  Matrix q_map_op_;  ///< Q = V^T K^{-1}
  Matrix cov_q_;     ///< Gamma_post(q)
  Matrix r_;         ///< R = L^{-1} V; row j contiguous
  std::vector<double> std_q_;
};

}  // namespace tsunami
