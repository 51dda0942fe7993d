#pragma once

// Gaussian Matern-type prior on the spatiotemporal seafloor velocity.
//
// Following the paper (SecIV): Gamma_prior is block diagonal in time, each
// spatial block the inverse of a squared elliptic operator (a Matern
// covariance). We use the standard bilaplacian construction of large-scale
// Bayesian inversion (hIPPYlib / [17, 18]):
//     C = A^{-1} M A^{-1},   A = delta * M + gamma * K,
// on the 2-D seafloor parameter grid, with M the lumped mass and K the
// 5-point stiffness of the grid. Then
//     C^{1/2} = A^{-1} M^{1/2}   (M diagonal),
// giving exact samples and pointwise variances. The correlation length is
// rho ~ sqrt(8 (gamma/delta)) and the marginal std dev is controlled by
// sigma; delta and gamma are calibrated from (sigma, rho) per Lindgren et
// al. (2011) as used by hIPPYlib.
//
// A is banded with bandwidth = grid width, so a banded Cholesky gives exact
// direct solves — a CPU stand-in for the paper's cuDSS sparse direct solver.

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "linalg/banded_cholesky.hpp"
#include "util/rng.hpp"

namespace tsunami {

struct MaternPriorConfig {
  double sigma = 1.0;               ///< pointwise marginal std dev target
  double correlation_length = 3e4;  ///< [m]
};

/// Spatial prior covariance block on a structured (nx1 x ny1) grid with
/// spacings (hx, hy). Time blocks are iid copies of this block.
class MaternPrior {
 public:
  MaternPrior(std::size_t nx1, std::size_t ny1, double hx, double hy,
              const MaternPriorConfig& config = {});

  [[nodiscard]] std::size_t dim() const { return n_; }

  /// y = C x (one spatial block): two banded solves + diagonal mass.
  void apply(std::span<const double> x, std::span<double> y) const;

  /// y = C^{-1} x = A M^{-1} A x (the regularization operator).
  void apply_inverse(std::span<const double> x, std::span<double> y) const;

  /// y = C^{1/2} x = A^{-1} M^{1/2} x; maps white noise to a prior sample.
  void apply_sqrt(std::span<const double> x, std::span<double> y) const;

  /// Block-diagonal-in-time application to a time-major space-time vector
  /// with `nt` blocks (pool-parallel over blocks).
  void apply_time_blocks(std::span<const double> x, std::span<double> y,
                         std::size_t nt) const;

  /// Exact pointwise prior variance at grid node r: (C)_rr.
  [[nodiscard]] double pointwise_variance(std::size_t r) const;

  /// Draw one spatial sample (correlated Gaussian field).
  [[nodiscard]] std::vector<double> sample(Rng& rng) const;

  [[nodiscard]] const MaternPriorConfig& config() const { return cfg_; }
  [[nodiscard]] double delta() const { return delta_; }
  [[nodiscard]] double gamma() const { return gamma_; }

 private:
  std::size_t nx1_, ny1_, n_;
  MaternPriorConfig cfg_;
  double delta_ = 0.0, gamma_ = 0.0;
  std::vector<double> mass_;       ///< lumped mass diagonal (cell areas)
  std::vector<double> sqrt_mass_;
  std::vector<double> inv_mass_;
  BandedMatrix a_;                 ///< delta M + gamma K
  std::unique_ptr<BandedCholesky> chol_;
};

}  // namespace tsunami
