#include "core/data_space_hessian.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/p2o_builder.hpp"
#include "linalg/blas.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"

namespace tsunami {

NoiseModel relative_noise(std::span<const double> d, double level) {
  double dmax = 0.0;
  for (double v : d) dmax = std::max(dmax, std::abs(v));
  if (dmax == 0.0) dmax = 1.0;
  return NoiseModel{level * dmax};
}

Matrix prior_product(const P2oMap& a, const P2oMap& b,
                     const MaternPrior& prior) {
  const std::size_t nt = a.nt, nm = a.ncols;
  const std::size_t ra = nt * a.nrows, rb = nt * b.nrows;
  const std::span<const double> a_rows = a.toeplitz->blocks();
  const std::span<const double> b_rows = b.toeplitz->blocks();
  if (b.nt != nt || b.ncols != nm || prior.dim() != nm ||
      a_rows.size() != ra * nm || b_rows.size() != rb * nm)
    throw std::invalid_argument("prior_product: shape mismatch");
  // Row (k, s) of A's blocks is row s of A_k; P is symmetric, so P applied
  // to it is row s of A_k P.
  Matrix ap(ra, nm);
  parallel_for(ra, [&](std::size_t r) {
    prior.apply(a_rows.subspan(r * nm, nm), ap.row(r));
  });
  Matrix bt(nm, rb);
  for (std::size_t r = 0; r < rb; ++r)
    for (std::size_t c = 0; c < nm; ++c) bt(c, r) = b_rows[r * nm + c];
  Matrix out(ra, rb);
  gemm(ap, bt, out);  // block (i, j) is M(i, j) = A_i P B_j^T
  // Out(i, j) = M(i, j) + Out(i-1, j-1): row block i-1 is final when row
  // block i reads it.
  for (std::size_t r = a.nrows; r < ra; ++r) {
    const std::span<const double> prev = out.row(r - a.nrows);
    const std::span<double> cur = out.row(r);
    for (std::size_t c = b.nrows; c < rb; ++c) cur[c] += prev[c - b.nrows];
  }
  return out;
}

DataSpaceHessian::DataSpaceHessian(const P2oMap& f, const MaternPrior& prior,
                                   const NoiseModel& noise,
                                   TimerRegistry* timers)
    : noise_(noise) {
  Stopwatch form_watch;
  // The two triangles of the product round differently; the lower one is
  // kept and mirrored, so K is exactly symmetric.
  k_ = prior_product(f, f, prior);
  const std::size_t n = k_.rows();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) k_(j, i) = k_(i, j);
    k_(i, i) += noise_.variance();
  }
  if (timers) timers->add("form K", form_watch.seconds());

  Stopwatch chol_watch;
  {
    // The offline build's one dense factorization, as a kernel span beside
    // the phase span: the Toeplitz kernels no longer run in a build.
    TRACE_SCOPE("kernel", "factorize_k");
    chol_ = std::make_unique<DenseCholesky>(k_);
  }
  if (timers) timers->add("factorize K", chol_watch.seconds());
}

DataSpaceHessian DataSpaceHessian::from_factor(DenseCholesky l,
                                               const NoiseModel& noise) {
  DataSpaceHessian h;
  h.noise_ = noise;
  h.chol_ = std::make_unique<DenseCholesky>(std::move(l));
  return h;
}

const Matrix& DataSpaceHessian::matrix() const {
  if (k_.rows() != dim())
    throw std::logic_error(
        "DataSpaceHessian::matrix: K not retained on a warm-started "
        "(from_factor) instance — only the Cholesky factor ships in the "
        "artifact bundle");
  return k_;
}

void DataSpaceHessian::decouple_channels(const SensorMask& mask,
                                         std::size_t channels_per_tick) {
  const std::size_t n = dim();
  if (channels_per_tick == 0 || n % channels_per_tick != 0)
    throw std::invalid_argument(
        "DataSpaceHessian::decouple_channels: dim not a multiple of "
        "channels_per_tick");
  if (mask.size() != channels_per_tick)
    throw std::invalid_argument(
        "DataSpaceHessian::decouple_channels: mask size mismatch");
  const double var = noise_.variance();
  std::vector<double> v(n), u(n);
  for (std::size_t p = 0; p < n; ++p) {
    if (!mask.masked(p % channels_per_tick)) continue;
    // Current column K e_p, straight from the factor: L^T e_p is row p of L
    // (nonzero only up to p), so K e_p = L (L^T e_p) costs O(n p).
    const std::span<const double> lp = chol_->row(p);
    for (std::size_t i = 0; i < n; ++i) {
      const std::span<const double> li = chol_->row(i);
      double s = 0.0;
      const std::size_t jmax = std::min(i, p);
      for (std::size_t j = 0; j <= jmax; ++j) s += li[j] * lp[j];
      v[i] = s;
    }
    // Target row/col: sigma^2 e_p.  K' = K - e_p v^T - v e_p^T with
    //   v = K e_p - sigma^2 e_p - 1/2 (K_pp - sigma^2) e_p
    // touches exactly row/column p.  Off-diagonal entries of v are K_ip.
    const double kpp = v[p];
    v[p] = 0.5 * (kpp - var);
    double alpha2 = 0.0;
    for (double x : v) alpha2 += x * x;
    const double alpha = std::sqrt(alpha2);
    // Already-decoupled row (repeat call, or a channel whose rows were never
    // coupled): correction is numerically zero — skip, keeping the edit
    // idempotent and avoiding a degenerate hyperbolic rotation.
    if (alpha <= 1e-15 * std::max(std::abs(kpp), var)) continue;
    // Split the symmetric rank-2 term:  e v^T + v e^T =
    //   (1/2a)[(a e + v)(a e + v)^T - (a e - v)(a e - v)^T],   a = |v|.
    // Apply the SPD-safe order: grow first (update with (a e - v)), then
    // shrink (downdate with (a e + v)).
    const double scale = 1.0 / std::sqrt(2.0 * alpha);
    for (std::size_t i = 0; i < n; ++i)
      u[i] = ((i == p ? alpha : 0.0) - v[i]) * scale;
    chol_->rank_update(u);
    for (std::size_t i = 0; i < n; ++i)
      u[i] = ((i == p ? alpha : 0.0) + v[i]) * scale;
    chol_->rank_downdate(u);
    if (k_.rows() == n) {
      for (std::size_t i = 0; i < n; ++i) {
        k_(i, p) = 0.0;
        k_(p, i) = 0.0;
      }
      k_(p, p) = var;
    }
  }
}

void DataSpaceHessian::solve(std::span<const double> x,
                             std::span<double> y) const {
  if (x.size() != dim() || y.size() != dim())
    throw std::invalid_argument("DataSpaceHessian::solve: size mismatch");
  std::copy(x.begin(), x.end(), y.begin());
  chol_->solve_in_place(y);
}

}  // namespace tsunami
