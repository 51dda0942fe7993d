#include "core/posterior.hpp"

#include <algorithm>
#include <stdexcept>

#include "linalg/blas.hpp"
#include "parallel/parallel_for.hpp"

namespace tsunami {

namespace {

/// Backs the workspace-less overloads: per-thread, so the legacy API stays
/// allocation-free in steady state and safe under concurrent callers.
Posterior::Workspace& tls_workspace() {
  static thread_local Posterior::Workspace ws;
  return ws;
}

}  // namespace

Posterior::Posterior(const BlockToeplitz& f, const MaternPrior& prior,
                     const DataSpaceHessian& hessian)
    : f_(f), prior_(prior), hess_(hessian) {
  if (prior_.dim() != f_.block_cols())
    throw std::invalid_argument("Posterior: prior/spatial dim mismatch");
  if (hess_.dim() != f_.output_dim())
    throw std::invalid_argument("Posterior: Hessian/data dim mismatch");
}

TSUNAMI_HOT_PATH void Posterior::apply_gstar(std::span<const double> y,
                                             std::span<double> m,
                                             Workspace& ws) const {
  ws.param_a.resize(parameter_dim());  // lint: allow(hot-path-alloc) grow-once workspace
  f_.apply_transpose(y, std::span<double>(ws.param_a), ws.toeplitz);
  prior_.apply_time_blocks(ws.param_a, m, time_dim());
}

TSUNAMI_HOT_PATH void Posterior::apply_gstar(std::span<const double> y,
                                             std::span<double> m) const {
  apply_gstar(y, m, tls_workspace());
}

TSUNAMI_HOT_PATH void Posterior::apply_gstar_prefix(std::span<const double> y,
                                                    std::size_t ticks,
                                                    std::span<double> m,
                                                    Workspace& ws) const {
  const std::size_t nd = f_.block_rows();
  if (ticks > time_dim() || y.size() < ticks * nd ||
      m.size() != parameter_dim())
    throw std::invalid_argument("Posterior::apply_gstar_prefix: bad prefix");
  // Zero-padding the unseen intervals is exact: the missing rows of F
  // contribute nothing to F^T y when their data weights are zero. The
  // Toeplitz prefix path pads inside the FFT pack — no padded copy here.
  ws.param_a.resize(parameter_dim());  // lint: allow(hot-path-alloc) grow-once workspace
  f_.apply_transpose_prefix(y.first(ticks * nd), ticks,
                            std::span<double>(ws.param_a), ws.toeplitz);
  // F^T is block upper triangular, so parameter blocks at or past `ticks`
  // are exactly zero (their FFT output is roundoff): the prior runs on the
  // causal blocks only.
  const std::size_t causal = ticks * spatial_dim();
  prior_.apply_time_blocks(std::span<const double>(ws.param_a).first(causal),
                           m.first(causal), ticks);
  std::fill(m.begin() + static_cast<std::ptrdiff_t>(causal), m.end(), 0.0);
}

TSUNAMI_HOT_PATH void Posterior::apply_gstar_prefix(std::span<const double> y,
                                                    std::size_t ticks,
                                                    std::span<double> m) const {
  apply_gstar_prefix(y, ticks, m, tls_workspace());
}

TSUNAMI_HOT_PATH void Posterior::apply_g(std::span<const double> v,
                                         std::span<double> d,
                                         Workspace& ws) const {
  ws.param_a.resize(parameter_dim());  // lint: allow(hot-path-alloc) grow-once workspace
  prior_.apply_time_blocks(v, std::span<double>(ws.param_a), time_dim());
  f_.apply(ws.param_a, d, ws.toeplitz);
}

TSUNAMI_HOT_PATH void Posterior::apply_g(std::span<const double> v,
                                         std::span<double> d) const {
  apply_g(v, d, tls_workspace());
}

std::vector<double> Posterior::map_point_masked(std::span<const double> d_obs,
                                                const SensorMask& mask) const {
  if (d_obs.size() != data_dim())
    throw std::invalid_argument("Posterior::map_point_masked: size mismatch");
  const std::size_t nd = f_.block_rows();
  if (mask.size() != nd)
    throw std::invalid_argument(
        "Posterior::map_point_masked: mask size mismatch");
  std::vector<std::size_t> live;
  for (std::size_t i = 0; i < data_dim(); ++i)
    if (!mask.masked(i % nd)) live.push_back(i);
  const Matrix& k = hess_.matrix();
  Matrix ks(live.size(), live.size());
  for (std::size_t a = 0; a < live.size(); ++a)
    for (std::size_t b = 0; b < live.size(); ++b)
      ks(a, b) = k(live[a], live[b]);
  DenseCholesky chol(ks);
  std::vector<double> rhs(live.size());
  for (std::size_t a = 0; a < live.size(); ++a) rhs[a] = d_obs[live[a]];
  chol.solve_in_place(rhs);
  std::vector<double> y(data_dim(), 0.0);
  for (std::size_t a = 0; a < live.size(); ++a) y[live[a]] = rhs[a];
  std::vector<double> m(parameter_dim());
  apply_gstar(y, std::span<double>(m));
  return m;
}

TSUNAMI_HOT_PATH void Posterior::covariance_apply(std::span<const double> x,
                                                  std::span<double> y,
                                                  Workspace& ws) const {
  if (x.size() != parameter_dim() || y.size() != parameter_dim())
    throw std::invalid_argument("Posterior::covariance_apply: size mismatch");
  // y = Gamma_prior x - G* K^{-1} G x.
  ws.data_a.resize(data_dim());  // lint: allow(hot-path-alloc) grow-once workspace
  ws.data_b.resize(data_dim());  // lint: allow(hot-path-alloc) grow-once workspace
  ws.param_b.resize(parameter_dim());  // lint: allow(hot-path-alloc) grow-once workspace
  apply_g(x, std::span<double>(ws.data_a), ws);
  hess_.solve(ws.data_a, std::span<double>(ws.data_b));
  apply_gstar(ws.data_b, std::span<double>(ws.param_b), ws);
  prior_.apply_time_blocks(x, y, time_dim());
  axpy(-1.0, ws.param_b, y);
}

TSUNAMI_HOT_PATH void Posterior::covariance_apply(std::span<const double> x,
                                                  std::span<double> y) const {
  covariance_apply(x, y, tls_workspace());
}

double Posterior::pointwise_variance(std::size_t r, std::size_t t) const {
  if (r >= spatial_dim() || t >= time_dim())
    throw std::out_of_range("Posterior::pointwise_variance");
  // g = G e_{(r,t)}: prior applied to a spatial unit vector in block t.
  std::vector<double> unit(spatial_dim(), 0.0);
  unit[r] = 1.0;
  std::vector<double> prior_col(spatial_dim());
  prior_.apply(unit, std::span<double>(prior_col));
  std::vector<double> v(parameter_dim(), 0.0);
  std::copy(prior_col.begin(), prior_col.end(),
            v.begin() + static_cast<std::ptrdiff_t>(t * spatial_dim()));
  std::vector<double> g(data_dim());
  f_.apply(v, std::span<double>(g));
  std::vector<double> kg(data_dim());
  hess_.solve(g, std::span<double>(kg));
  const double correction = dot(g, kg);
  return prior_.pointwise_variance(r) - correction;
}

std::vector<double> Posterior::sample(std::span<const double> m_map,
                                      Rng& rng) const {
  if (m_map.size() != parameter_dim())
    throw std::invalid_argument("Posterior::sample: m_map size mismatch");
  // Prior draw, block-iid in time.
  std::vector<double> m_pr(parameter_dim());
  for (std::size_t t = 0; t < time_dim(); ++t) {
    const auto block = prior_.sample(rng);
    std::copy(block.begin(), block.end(),
              m_pr.begin() + static_cast<std::ptrdiff_t>(t * spatial_dim()));
  }
  // Synthetic data residual: F m_pr + eps.
  std::vector<double> d(data_dim());
  f_.apply(m_pr, std::span<double>(d));
  for (auto& v : d) v += hess_.noise().sigma * rng.normal();
  std::vector<double> kd(data_dim());
  hess_.solve(d, std::span<double>(kd));
  std::vector<double> corr(parameter_dim());
  apply_gstar(kd, std::span<double>(corr));

  std::vector<double> out(m_map.begin(), m_map.end());
  axpy(1.0, m_pr, std::span<double>(out));
  axpy(-1.0, corr, std::span<double>(out));
  return out;
}

}  // namespace tsunami
