#include "core/forecast.hpp"

#include <cmath>
#include <stdexcept>

#include "core/p2o_builder.hpp"
#include "linalg/blas.hpp"
#include "parallel/parallel_for.hpp"

namespace tsunami {

QoiPredictor::QoiPredictor(const P2oMap& f, const P2oMap& fq,
                           const MaternPrior& prior,
                           const DataSpaceHessian& hessian,
                           TimerRegistry* timers)
    : nq_(fq.nrows), nt_(fq.nt) {
  const std::size_t nqoi = fq.toeplitz->output_dim();

  Stopwatch cov_watch;
  const Matrix v_mat = prior_product(f, fq, prior);   // ndata x nqoi
  const Matrix w_mat = prior_product(fq, fq, prior);  // nqoi x nqoi

  // K^{-1} V.
  Matrix kinv_v(v_mat);
  hessian.cholesky().solve_in_place(kinv_v);

  // Gamma_post(q) = W - V^T K^{-1} V (symmetrized against roundoff).
  cov_q_ = Matrix(nqoi, nqoi);
  gemm_tn(v_mat, kinv_v, cov_q_);
  for (std::size_t i = 0; i < nqoi; ++i)
    for (std::size_t j = 0; j < nqoi; ++j)
      cov_q_(i, j) = w_mat(i, j) - cov_q_(i, j);
  for (std::size_t i = 0; i < nqoi; ++i)
    for (std::size_t j = i + 1; j < nqoi; ++j) {
      const double s = 0.5 * (cov_q_(i, j) + cov_q_(j, i));
      cov_q_(i, j) = s;
      cov_q_(j, i) = s;
    }
  std_q_.resize(nqoi);
  for (std::size_t i = 0; i < nqoi; ++i)
    std_q_[i] = std::sqrt(std::max(0.0, cov_q_(i, i)));
  if (timers) timers->add("compute Gamma_post(q)", cov_watch.seconds());

  Stopwatch r_watch;
  // R = L^{-1} V, the forecast slab. Forward substitution keeps the rows
  // causal, so row block t is exactly what tick t contributes. With K =
  // L L^T, R = L^{-1} K (K^{-1} V) = L^T (K^{-1} V), a triangular product:
  // r_(i, :) = sum_{j >= i} L(j, i) (K^{-1} V)(j, :), the slab sweep over
  // rows [i, n) of K^{-1} V, its coefficients column i of L gathered into
  // slot-local scratch.
  const std::size_t n = kinv_v.rows();
  const DenseCholesky& l = hessian.cholesky();
  r_ = Matrix(n, nqoi);
  std::vector<double> coeffs(static_cast<std::size_t>(num_threads()) * n);
  parallel_for_slotted(n, 8, [&](std::size_t i, std::size_t slot) {
    double* col = coeffs.data() + slot * n;
    for (std::size_t j = i; j < n; ++j) col[j - i] = l.row(j)[i];
    accumulate_rows(kinv_v.data() + i * nqoi, n - i, nqoi, col,
                    r_.row(i).data());
  });
  if (timers) timers->add("compute R", r_watch.seconds());
}

QoiPredictor::QoiPredictor(std::size_t num_gauges, std::size_t num_times,
                           Matrix qoi_cov, Matrix forecast_slab)
    : nq_(num_gauges),
      nt_(num_times),
      cov_q_(std::move(qoi_cov)),
      r_(std::move(forecast_slab)) {
  const std::size_t nqoi = nq_ * nt_;
  if (cov_q_.rows() != nqoi || cov_q_.cols() != nqoi)
    throw std::invalid_argument("QoiPredictor: Gamma_post(q) shape mismatch");
  if (r_.cols() != nqoi)
    throw std::invalid_argument("QoiPredictor: R shape mismatch");
  std_q_.resize(nqoi);
  for (std::size_t i = 0; i < nqoi; ++i)
    std_q_[i] = std::sqrt(std::max(0.0, cov_q_(i, i)));
}

Forecast QoiPredictor::predict_whitened(std::span<const double> z) const {
  if (z.size() != data_dim())
    throw std::invalid_argument(
        "QoiPredictor::predict_whitened: data size mismatch");
  Forecast fc;
  fc.num_gauges = nq_;
  fc.num_times = nt_;
  fc.mean.assign(qoi_dim(), 0.0);
  accumulate_rows(r_.data(), r_.rows(), r_.cols(), z.data(), fc.mean.data());
  fc.stddev = std_q_;
  fc.lower95.resize(qoi_dim());
  fc.upper95.resize(qoi_dim());
  for (std::size_t i = 0; i < qoi_dim(); ++i) {
    fc.lower95[i] = fc.mean[i] - 1.96 * std_q_[i];
    fc.upper95[i] = fc.mean[i] + 1.96 * std_q_[i];
  }
  return fc;
}

}  // namespace tsunami
