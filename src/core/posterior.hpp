#pragma once

// The Gaussian posterior N(m_map, Gamma_post) in SMW form (SecV-B):
//   m_map      = G* K^{-1} d_obs,
//   Gamma_post = Gamma_prior - G* K^{-1} G,
// with G = F Gamma_prior applied matrix-free through the FFT Toeplitz engine
// and the prior's banded solves — no PDE solves anywhere (the offline-online
// separation that makes Phase 4 real-time).

#include <cstddef>
#include <span>
#include <vector>

#include "core/data_space_hessian.hpp"
#include "prior/matern_prior.hpp"
#include "toeplitz/block_toeplitz.hpp"
#include "util/hot_path.hpp"
#include "util/rng.hpp"

namespace tsunami {

class Posterior {
 public:
  /// Reusable scratch for the apply/solve paths: the Toeplitz workspace plus
  /// the parameter- and data-space staging vectors each method needs. Same
  /// ownership rule as ToeplitzWorkspace: one caller thread at a time; after
  /// the first call at a given shape no method that takes a workspace
  /// allocates. The workspace-less overloads route through a thread_local
  /// instance, so they too are allocation-free in steady state and safe
  /// under concurrent callers.
  struct Workspace {
    ToeplitzWorkspace toeplitz;
    std::vector<double> param_a;  ///< parameter_dim staging (F^T y / G v)
    std::vector<double> param_b;  ///< parameter_dim staging (corrections)
    std::vector<double> data_a;   ///< data_dim staging (K^{-1} rhs)
    std::vector<double> data_b;   ///< data_dim staging
  };

  Posterior(const BlockToeplitz& f, const MaternPrior& prior,
            const DataSpaceHessian& hessian);

  [[nodiscard]] std::size_t parameter_dim() const { return f_.input_dim(); }
  [[nodiscard]] std::size_t data_dim() const { return f_.output_dim(); }
  [[nodiscard]] std::size_t spatial_dim() const { return f_.block_cols(); }
  [[nodiscard]] std::size_t time_dim() const { return f_.num_blocks(); }

  /// G* y = Gamma_prior F^T y  (data space -> parameter space).
  TSUNAMI_HOT_PATH void apply_gstar(std::span<const double> y,
                                    std::span<double> m) const;
  TSUNAMI_HOT_PATH void apply_gstar(std::span<const double> y,
                                    std::span<double> m, Workspace& ws) const;

  /// Prefix G*: treats `y` as the leading `ticks` observation intervals of a
  /// data-space vector (remaining intervals zero) and applies G*. This is
  /// exactly G restricted to the rows available at tick `ticks` — the
  /// adjoint the truncated (streaming) posterior needs. The zero padding is
  /// implicit in the FFT pack pass; no padded copy is built. The result is
  /// causal: the prior runs on parameter blocks 0..ticks-1 only, and blocks
  /// ticks..Nt-1 are written as exact zeros.
  TSUNAMI_HOT_PATH void apply_gstar_prefix(std::span<const double> y,
                                           std::size_t ticks,
                                           std::span<double> m) const;
  TSUNAMI_HOT_PATH void apply_gstar_prefix(std::span<const double> y,
                                           std::size_t ticks,
                                           std::span<double> m,
                                           Workspace& ws) const;

  /// G v = F Gamma_prior v  (parameter space -> data space).
  TSUNAMI_HOT_PATH void apply_g(std::span<const double> v,
                                std::span<double> d) const;
  TSUNAMI_HOT_PATH void apply_g(std::span<const double> v,
                                std::span<double> d, Workspace& ws) const;

  /// Reference MAP point over a reduced sensor network: builds the reduced
  /// data-space Hessian K[S,S] (S = rows of surviving channels) explicitly,
  /// solves it dense, and applies G* restricted to S. Deliberately
  /// brute-force — O(|S|^3) and requires the formed K (cold path only) — it
  /// is the independent oracle the degraded-mode streaming tests compare the
  /// O(r n^2) downdate/projection machinery against.
  [[nodiscard]] std::vector<double> map_point_masked(
      std::span<const double> d_obs, const SensorMask& mask) const;

  /// y = Gamma_post x  (one "billion-parameter inverse solve" per call in
  /// the paper's phrasing; here two Toeplitz matvecs + prior solves + one
  /// Cholesky solve).
  TSUNAMI_HOT_PATH void covariance_apply(std::span<const double> x,
                                         std::span<double> y) const;
  TSUNAMI_HOT_PATH void covariance_apply(std::span<const double> x,
                                         std::span<double> y,
                                         Workspace& ws) const;

  /// Pointwise posterior variance of parameter (spatial node r, interval t):
  /// (Gamma_post)_{(r,t),(r,t)} = (Gamma_prior)_rr - g^T K^{-1} g.
  [[nodiscard]] double pointwise_variance(std::size_t r, std::size_t t) const;

  /// Exact posterior sample via Matheron's update:
  ///   m = m_map + m_pr - G* K^{-1} (F m_pr + eps),
  /// with m_pr ~ N(0, Gamma_prior), eps ~ N(0, Gamma_noise).
  [[nodiscard]] std::vector<double> sample(std::span<const double> m_map,
                                           Rng& rng) const;

  [[nodiscard]] const BlockToeplitz& forward_map() const { return f_; }
  [[nodiscard]] const MaternPrior& prior() const { return prior_; }
  [[nodiscard]] const DataSpaceHessian& hessian() const { return hess_; }

 private:
  const BlockToeplitz& f_;
  const MaternPrior& prior_;
  const DataSpaceHessian& hess_;
};

}  // namespace tsunami
