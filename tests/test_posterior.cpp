// Tests of the Bayesian machinery: the data-space Hessian, the SMW-form
// posterior against a directly assembled and factorized full-space Hessian
// (exactness of the offline-online decomposition), posterior variance
// reduction, and Matheron sampling statistics.

#include <gtest/gtest.h>

#include <cmath>

#include "core/data_space_hessian.hpp"
#include "core/p2o_builder.hpp"
#include "core/posterior.hpp"
#include "linalg/blas.hpp"
#include "linalg/dense_cholesky.hpp"
#include "util/rng.hpp"

namespace tsunami {
namespace {

/// Tiny inverse problem shared by the tests: 2x2x1 mesh, order 1,
/// 2 sensors, 4 intervals. Small enough to assemble everything densely.
struct TinyProblem {
  TinyProblem()
      : bathy(flat_basin(1500.0, 30e3, 30e3)),
        mesh(bathy, 2, 2, 1),
        model(mesh, 1) {
    obs = std::make_unique<ObservationOperator>(
        ObservationOperator::seafloor_sensors(
            model, {{8e3, 9e3}, {21e3, 22e3}}));
    grid.num_intervals = 4;
    grid.substeps = 3;
    grid.dt = model.cfl_timestep(0.4);
    map = build_p2o_map(model, *obs, grid);
    nm = model.source_map().parameter_dim();
    nd = obs->num_outputs();
    n_param = nm * grid.num_intervals;
    n_data = nd * grid.num_intervals;

    MaternPriorConfig pcfg;
    pcfg.sigma = 0.3;
    pcfg.correlation_length = 10e3;
    prior = std::make_unique<MaternPrior>(3, 3, 15e3, 15e3, pcfg);

    // Physically scaled synthetic data: a prior draw pushed through F, with
    // 5% relative noise (pressure units). This keeps both the data-space
    // Hessian K and the full-space Hessian H well conditioned, unlike an
    // arbitrary O(1) d_obs against pressure-scale columns of F.
    Rng rng(99);
    std::vector<double> m_true(n_param);
    for (std::size_t t = 0; t < grid.num_intervals; ++t) {
      const auto block = prior->sample(rng);
      std::copy(block.begin(), block.end(),
                m_true.begin() + static_cast<std::ptrdiff_t>(t * nm));
    }
    d_obs.resize(n_data);
    map.toeplitz->apply(m_true, std::span<double>(d_obs));
    noise = relative_noise(d_obs, 0.05);
    for (auto& v : d_obs) v += noise.sigma * rng.normal();

    hessian = std::make_unique<DataSpaceHessian>(map, *prior, noise);
    posterior = std::make_unique<Posterior>(*map.toeplitz, *prior, *hessian);
  }

  /// m_map = G* K^{-1} d: the Hessian solve, then the G* lift (the calls
  /// DigitalTwin::infer makes).
  std::vector<double> map_of(std::span<const double> d) const {
    std::vector<double> kinv_d(n_data), m(n_param);
    hessian->solve(d, std::span<double>(kinv_d));
    posterior->apply_gstar(kinv_d, std::span<double>(m));
    return m;
  }

  /// Dense F from unit vectors through the Toeplitz engine.
  Matrix dense_f() const {
    Matrix f(n_data, n_param);
    for (std::size_t j = 0; j < n_param; ++j) {
      std::vector<double> e(n_param, 0.0), col(n_data);
      e[j] = 1.0;
      map.toeplitz->apply(e, std::span<double>(col));
      for (std::size_t i = 0; i < n_data; ++i) f(i, j) = col[i];
    }
    return f;
  }

  /// Dense Gamma_prior (block diagonal in time).
  Matrix dense_prior() const {
    Matrix c(n_param, n_param);
    for (std::size_t j = 0; j < n_param; ++j) {
      std::vector<double> e(n_param, 0.0), col(n_param);
      e[j] = 1.0;
      prior->apply_time_blocks(e, std::span<double>(col),
                               grid.num_intervals);
      for (std::size_t i = 0; i < n_param; ++i) c(i, j) = col[i];
    }
    return c;
  }

  Bathymetry bathy;
  HexMesh mesh;
  AcousticGravityModel model;
  std::unique_ptr<ObservationOperator> obs;
  TimeGrid grid;
  P2oMap map;
  std::unique_ptr<MaternPrior> prior;
  NoiseModel noise;
  std::vector<double> d_obs;  ///< physically scaled noisy observations
  std::unique_ptr<DataSpaceHessian> hessian;
  std::unique_ptr<Posterior> posterior;
  std::size_t nm = 0, nd = 0, n_param = 0, n_data = 0;
};

TEST(RelativeNoise, ScalesWithPeakSignal) {
  const std::vector<double> d{0.0, -4.0, 2.0};
  const auto noise = relative_noise(d, 0.01);
  EXPECT_DOUBLE_EQ(noise.sigma, 0.04);
  const std::vector<double> zero(3, 0.0);
  EXPECT_DOUBLE_EQ(relative_noise(zero, 0.01).sigma, 0.01);
}

TEST(DataSpaceHessian, MatchesDenseDefinition) {
  TinyProblem tp;
  // K = sigma^2 I + F C F^T assembled densely.
  const Matrix f = tp.dense_f();
  const Matrix c = tp.dense_prior();
  Matrix fc(tp.n_data, tp.n_param);
  gemm(f, c, fc);
  const Matrix ft = f.transposed();
  Matrix k_dense(tp.n_data, tp.n_data);
  gemm(fc, ft, k_dense);
  for (std::size_t i = 0; i < tp.n_data; ++i)
    k_dense(i, i) += tp.noise.variance();

  const double scale = 1e-10 + 1e-8 * std::abs(k_dense(0, 0));
  EXPECT_LT(tp.hessian->matrix().max_abs_diff(k_dense), scale);
}

TEST(DataSpaceHessian, SolveInvertsMatrix) {
  TinyProblem tp;
  Rng rng(1);
  const auto x = rng.normal_vector(tp.n_data);
  std::vector<double> kx(tp.n_data), back(tp.n_data);
  gemv(tp.hessian->matrix(), x, std::span<double>(kx));
  tp.hessian->solve(kx, std::span<double>(back));
  for (std::size_t i = 0; i < tp.n_data; ++i)
    EXPECT_NEAR(back[i], x[i], 1e-7 * (std::abs(x[i]) + 1.0));
}

TEST(Posterior, MapPointSolvesFullSpaceNormalEquations) {
  // The SMW identity: m_map = C F^T K^{-1} d must satisfy
  // (F^T Gn^{-1} F + C^{-1}) m_map = F^T Gn^{-1} d to solver precision.
  TinyProblem tp;
  const auto& d_obs = tp.d_obs;
  const auto m_map = tp.map_of(d_obs);

  const Matrix f = tp.dense_f();
  const Matrix c = tp.dense_prior();
  const DenseCholesky c_chol(c);

  // H m = F^T Gn^{-1} F m + C^{-1} m.
  std::vector<double> fm(tp.n_data);
  gemv(f, m_map, std::span<double>(fm));
  for (auto& v : fm) v /= tp.noise.variance();
  std::vector<double> hm(tp.n_param);
  gemv_t(f, fm, std::span<double>(hm));
  std::vector<double> cinv_m(m_map);
  c_chol.solve_in_place(std::span<double>(cinv_m));
  axpy(1.0, cinv_m, std::span<double>(hm));

  // RHS = F^T Gn^{-1} d.
  std::vector<double> scaled(d_obs);
  for (auto& v : scaled) v /= tp.noise.variance();
  std::vector<double> rhs(tp.n_param);
  gemv_t(f, scaled, std::span<double>(rhs));

  const double scale = amax(rhs) + 1e-30;
  for (std::size_t i = 0; i < tp.n_param; ++i)
    EXPECT_NEAR(hm[i], rhs[i], 1e-6 * scale) << "row " << i;
}

TEST(Posterior, MapPointMatchesDenseDirectSolve) {
  TinyProblem tp;
  const auto& d_obs = tp.d_obs;
  const auto m_smw = tp.map_of(d_obs);

  // Direct: assemble H densely and Cholesky-solve.
  const Matrix f = tp.dense_f();
  const Matrix c = tp.dense_prior();
  const DenseCholesky c_chol(c);
  Matrix h(tp.n_param, tp.n_param);
  // H = F^T F / sigma^2 + C^{-1}.
  const Matrix ft = f.transposed();
  Matrix ftf(tp.n_param, tp.n_param);
  gemm(ft, f, ftf);
  Matrix c_inv(tp.n_param, tp.n_param);
  for (std::size_t j = 0; j < tp.n_param; ++j) {
    std::vector<double> e(tp.n_param, 0.0);
    e[j] = 1.0;
    c_chol.solve_in_place(std::span<double>(e));
    for (std::size_t i = 0; i < tp.n_param; ++i) c_inv(i, j) = e[i];
  }
  for (std::size_t i = 0; i < tp.n_param; ++i)
    for (std::size_t j = 0; j < tp.n_param; ++j)
      h(i, j) = ftf(i, j) / tp.noise.variance() + c_inv(i, j);
  // Symmetrize (c_inv columns carry solver roundoff).
  for (std::size_t i = 0; i < tp.n_param; ++i)
    for (std::size_t j = i + 1; j < tp.n_param; ++j) {
      const double v = 0.5 * (h(i, j) + h(j, i));
      h(i, j) = v;
      h(j, i) = v;
    }

  std::vector<double> rhs(tp.n_param);
  std::vector<double> scaled(d_obs);
  for (auto& v : scaled) v /= tp.noise.variance();
  gemv_t(f, scaled, std::span<double>(rhs));
  const DenseCholesky h_chol(h);
  h_chol.solve_in_place(std::span<double>(rhs));

  for (std::size_t i = 0; i < tp.n_param; ++i)
    EXPECT_NEAR(m_smw[i], rhs[i], 1e-6 * (std::abs(rhs[i]) + amax(rhs)));
}

TEST(Posterior, CovarianceApplyIsSymmetricPsd) {
  TinyProblem tp;
  Rng rng(4);
  const auto x = rng.normal_vector(tp.n_param);
  const auto y = rng.normal_vector(tp.n_param);
  std::vector<double> px(tp.n_param), py(tp.n_param);
  tp.posterior->covariance_apply(x, std::span<double>(px));
  tp.posterior->covariance_apply(y, std::span<double>(py));
  EXPECT_NEAR(dot(px, y), dot(x, py),
              1e-8 * std::abs(dot(px, y)) + 1e-12);
  EXPECT_GT(dot(px, x), 0.0);
}

TEST(Posterior, DataReducesVariance) {
  // Posterior variance must not exceed prior variance anywhere, and must be
  // strictly smaller at a sensed location/time.
  TinyProblem tp;
  for (std::size_t r = 0; r < tp.nm; ++r) {
    const double post = tp.posterior->pointwise_variance(r, 0);
    const double pri = tp.prior->pointwise_variance(r);
    EXPECT_LE(post, pri * (1.0 + 1e-9));
    EXPECT_GT(post, 0.0);
  }
  // Early-time parameters are observed by later data: expect a real drop
  // somewhere.
  double best_reduction = 0.0;
  for (std::size_t r = 0; r < tp.nm; ++r) {
    const double post = tp.posterior->pointwise_variance(r, 0);
    const double pri = tp.prior->pointwise_variance(r);
    best_reduction = std::max(best_reduction, (pri - post) / pri);
  }
  EXPECT_GT(best_reduction, 0.05);
}

TEST(Posterior, LastIntervalIsUninformed) {
  // Data at interval i observe sources at j <= i; the final interval's
  // parameters are only constrained by the final observations, and with a
  // sensor away from a node the variance barely drops. At minimum, variance
  // for the last interval must be >= variance for the first.
  TinyProblem tp;
  const std::size_t r = tp.nm / 2;
  const double early = tp.posterior->pointwise_variance(r, 0);
  const double late =
      tp.posterior->pointwise_variance(r, tp.grid.num_intervals - 1);
  EXPECT_GE(late, early - 1e-12);
}

TEST(Posterior, SampleStatisticsMatchPosteriorMoments) {
  TinyProblem tp;
  Rng rng(5);
  const auto m_map = tp.map_of(tp.d_obs);

  const std::size_t probe_r = tp.nm / 2, probe_t = 1;
  const double expected_var =
      tp.posterior->pointwise_variance(probe_r, probe_t);
  const std::size_t idx = probe_t * tp.nm + probe_r;

  double mean = 0.0, var = 0.0;
  const int nsamp = 600;
  std::vector<double> vals(nsamp);
  for (int k = 0; k < nsamp; ++k) {
    const auto s = tp.posterior->sample(m_map, rng);
    vals[static_cast<std::size_t>(k)] = s[idx];
    mean += s[idx];
  }
  mean /= nsamp;
  for (double v : vals) var += (v - mean) * (v - mean);
  var /= (nsamp - 1);

  EXPECT_NEAR(mean, m_map[idx], 5.0 * std::sqrt(expected_var / nsamp));
  EXPECT_NEAR(var, expected_var, 0.25 * expected_var);
}

TEST(Posterior, GstarAndGAreAdjointUpToPrior) {
  // <G v, y> == <v, Gamma_prior F^T y>' — both equal v^T C F^T y.
  TinyProblem tp;
  Rng rng(6);
  const auto v = rng.normal_vector(tp.n_param);
  const auto y = rng.normal_vector(tp.n_data);
  std::vector<double> gv(tp.n_data), gsy(tp.n_param);
  tp.posterior->apply_g(v, std::span<double>(gv));
  tp.posterior->apply_gstar(y, std::span<double>(gsy));
  EXPECT_NEAR(dot(gv, y), dot(v, gsy),
              1e-9 * std::abs(dot(gv, y)) + 1e-12);
}

}  // namespace
}  // namespace tsunami
