// Tests for the goal-oriented QoI machinery: the data-to-QoI operator Q, the
// QoI posterior covariance, and credible-interval behaviour.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/data_space_hessian.hpp"
#include "core/forecast.hpp"
#include "core/p2o_builder.hpp"
#include "core/posterior.hpp"
#include "linalg/blas.hpp"
#include "linalg/eigen.hpp"
#include "util/rng.hpp"

namespace tsunami {
namespace {

/// Phase 1 of a small problem, with its prior and noise model.
struct QoiMaps {
  QoiMaps()
      : bathy(flat_basin(1500.0, 30e3, 30e3)),
        mesh(bathy, 2, 2, 1),
        model(mesh, 1) {
    sensors = std::make_unique<ObservationOperator>(
        ObservationOperator::seafloor_sensors(model,
                                              {{8e3, 9e3}, {21e3, 22e3}}));
    gauges = std::make_unique<ObservationOperator>(
        ObservationOperator::surface_gauges(model, {{15e3, 15e3}}));
    grid.num_intervals = 4;
    grid.substeps = 3;
    grid.dt = model.cfl_timestep(0.4);
    f = build_p2o_map(model, *sensors, grid);
    fq = build_p2o_map(model, *gauges, grid);

    MaternPriorConfig pcfg;
    pcfg.sigma = 0.3;
    pcfg.correlation_length = 10e3;
    prior = std::make_unique<MaternPrior>(3, 3, 15e3, 15e3, pcfg);

    // Calibrate the noise to pressure scale: 5% of the data from a typical
    // prior draw (see test_posterior.cpp for the conditioning rationale).
    Rng rng(99);
    std::vector<double> m_typ(f.toeplitz->input_dim());
    for (std::size_t t = 0; t < grid.num_intervals; ++t) {
      const auto block = prior->sample(rng);
      std::copy(block.begin(), block.end(),
                m_typ.begin() + static_cast<std::ptrdiff_t>(
                                    t * prior->dim()));
    }
    std::vector<double> d_typ(f.toeplitz->output_dim());
    f.toeplitz->apply(m_typ, std::span<double>(d_typ));
    noise = relative_noise(d_typ, 0.05);
  }

  Bathymetry bathy;
  HexMesh mesh;
  AcousticGravityModel model;
  std::unique_ptr<ObservationOperator> sensors, gauges;
  TimeGrid grid;
  P2oMap f, fq;
  std::unique_ptr<MaternPrior> prior;
  NoiseModel noise;
};

/// Phases 2-3 on top of QoiMaps.
struct QoiProblem : QoiMaps {
  QoiProblem()
      : hessian(std::make_unique<DataSpaceHessian>(f, *prior, noise)),
        posterior(std::make_unique<Posterior>(*f.toeplitz, *prior, *hessian)),
        predictor(std::make_unique<QoiPredictor>(f, fq, *prior, *hessian)) {}

  /// Noisy observations from a fresh prior-distributed truth.
  std::vector<double> make_data(Rng& rng) const {
    std::vector<double> m(f.toeplitz->input_dim());
    for (std::size_t t = 0; t < grid.num_intervals; ++t) {
      const auto block = prior->sample(rng);
      std::copy(block.begin(), block.end(),
                m.begin() + static_cast<std::ptrdiff_t>(t * prior->dim()));
    }
    std::vector<double> d(f.toeplitz->output_dim());
    f.toeplitz->apply(m, std::span<double>(d));
    for (auto& v : d) v += noise.sigma * rng.normal();
    return d;
  }

  std::unique_ptr<DataSpaceHessian> hessian;
  std::unique_ptr<Posterior> posterior;
  std::unique_ptr<QoiPredictor> predictor;
};

TEST(QoiPredictor, DimensionsMatchProblem) {
  QoiProblem qp;
  EXPECT_EQ(qp.predictor->qoi_dim(), qp.fq.toeplitz->output_dim());
  EXPECT_EQ(qp.predictor->data_dim(), qp.f.toeplitz->output_dim());
  EXPECT_EQ(qp.predictor->num_gauges(), 1u);
  EXPECT_EQ(qp.predictor->num_times(), 4u);
}

TEST(QoiPredictor, QdEqualsFqAppliedToMapPoint) {
  // The paper's Phase 4 identity: q_map = Fq m_map = Q d_obs.
  QoiProblem qp;
  Rng rng(1);
  const auto d_obs = qp.make_data(rng);

  const auto fc = qp.predictor->predict(d_obs);
  const auto m_map = qp.posterior->map_point(d_obs);
  std::vector<double> q_via_m(qp.predictor->qoi_dim());
  qp.predictor->apply_fq_mean(m_map, std::span<double>(q_via_m));

  const double scale = amax(q_via_m) + 1e-30;
  for (std::size_t i = 0; i < q_via_m.size(); ++i)
    EXPECT_NEAR(fc.mean[i], q_via_m[i], 1e-8 * scale) << "qoi " << i;
}

TEST(QoiPredictor, CovarianceIsSymmetricPsd) {
  QoiProblem qp;
  const Matrix& cov = qp.predictor->qoi_covariance();
  for (std::size_t i = 0; i < cov.rows(); ++i)
    for (std::size_t j = 0; j < cov.cols(); ++j)
      EXPECT_NEAR(cov(i, j), cov(j, i), 1e-12);
  const auto eigs = symmetric_eigenvalues(cov);
  for (double e : eigs) EXPECT_GE(e, -1e-10 * std::abs(eigs.front()));
}

/// A Gamma_prior B^T through the FFT engine, one unit column at a time: B^T
/// on each unit vector through the transpose matvec, then the prior and the
/// A matvec.
Matrix fft_prior_product(const BlockToeplitz& a, const BlockToeplitz& b,
                         const MaternPrior& prior) {
  const std::size_t nb = b.output_dim();
  std::vector<double> unit(nb, 0.0), bt(b.input_dim()), g(b.input_dim());
  Matrix out_rows(nb, a.output_dim());
  for (std::size_t v = 0; v < nb; ++v) {
    unit[v] = 1.0;
    b.apply_transpose(unit, std::span<double>(bt));
    unit[v] = 0.0;
    prior.apply_time_blocks(bt, std::span<double>(g), b.num_blocks());
    a.apply(g, out_rows.row(v));
  }
  return out_rows.transposed();
}

/// max |x - ref| over max |ref|.
double relative_max_diff(const Matrix& x, const Matrix& ref) {
  double ref_max = 0.0;
  for (std::size_t i = 0; i < ref.rows(); ++i)
    ref_max = std::max(ref_max, amax(ref.row(i)));
  return x.max_abs_diff(ref) / ref_max;
}

TEST(PriorProduct, KVWMatchFftUnitColumnPath) {
  const QoiMaps qm;
  const BlockToeplitz& f = *qm.f.toeplitz;
  const BlockToeplitz& fq = *qm.fq.toeplitz;
  EXPECT_LE(relative_max_diff(prior_product(qm.f, qm.fq, *qm.prior),
                              fft_prior_product(f, fq, *qm.prior)),
            1e-13);
  EXPECT_LE(relative_max_diff(prior_product(qm.fq, qm.fq, *qm.prior),
                              fft_prior_product(fq, fq, *qm.prior)),
            1e-13);
  const DataSpaceHessian hessian(qm.f, *qm.prior, qm.noise);
  const Matrix& k = hessian.matrix();
  const std::size_t n = k.rows();
  Matrix k_prior(k);  // K - sigma^2 I
  for (std::size_t i = 0; i < n; ++i) k_prior(i, i) -= qm.noise.variance();
  EXPECT_LE(relative_max_diff(k_prior, fft_prior_product(f, f, *qm.prior)),
            1e-13);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < i; ++j)
      ASSERT_EQ(k(i, j), k(j, i)) << "K(" << i << ", " << j << ")";
}

TEST(QoiPredictor, PosteriorQoiVarianceBelowPrior) {
  // Gamma_post(q) <= Fq Gamma_prior Fq^T in the PSD order; check diagonals.
  QoiProblem qp;
  // Prior QoI variance: diag(Fq C Fq^T) via matvecs.
  const std::size_t nq = qp.predictor->qoi_dim();
  for (std::size_t i = 0; i < nq; ++i) {
    std::vector<double> e(nq, 0.0);
    e[i] = 1.0;
    std::vector<double> fqt(qp.fq.toeplitz->input_dim());
    qp.fq.toeplitz->apply_transpose(e, std::span<double>(fqt));
    std::vector<double> cfqt(fqt.size());
    qp.prior->apply_time_blocks(fqt, std::span<double>(cfqt),
                                qp.grid.num_intervals);
    std::vector<double> prior_col(nq);
    qp.fq.toeplitz->apply(cfqt, std::span<double>(prior_col));
    const double prior_var = prior_col[i];
    EXPECT_LE(qp.predictor->qoi_covariance()(i, i),
              prior_var * (1.0 + 1e-9));
  }
}

TEST(QoiPredictor, CredibleIntervalsBracketMean) {
  QoiProblem qp;
  Rng rng(2);
  const auto d_obs = qp.make_data(rng);
  const auto fc = qp.predictor->predict(d_obs);
  for (std::size_t i = 0; i < fc.mean.size(); ++i) {
    EXPECT_LE(fc.lower95[i], fc.mean[i]);
    EXPECT_GE(fc.upper95[i], fc.mean[i]);
    EXPECT_NEAR(fc.upper95[i] - fc.lower95[i], 2.0 * 1.96 * fc.stddev[i],
                1e-12);
  }
}

TEST(QoiPredictor, CoverageOfTrueQoiUnderRepeatedNoise) {
  // Frequentist check of the 95% CIs: draw a prior-distributed truth, make
  // noisy data, and verify the CI covers the true QoI at roughly the nominal
  // rate (loose bounds; small sample).
  QoiProblem qp;
  Rng rng(3);
  const std::size_t n_param = qp.f.toeplitz->input_dim();
  const std::size_t n_data = qp.f.toeplitz->output_dim();
  const std::size_t nq = qp.predictor->qoi_dim();

  int covered = 0, total = 0;
  for (int trial = 0; trial < 40; ++trial) {
    // Truth from the prior (the Bayesian coverage regime).
    std::vector<double> m_true(n_param);
    for (std::size_t t = 0; t < qp.grid.num_intervals; ++t) {
      const auto block = qp.prior->sample(rng);
      std::copy(block.begin(), block.end(),
                m_true.begin() + static_cast<std::ptrdiff_t>(
                                     t * qp.prior->dim()));
    }
    std::vector<double> d(n_data), q_true(nq);
    qp.f.toeplitz->apply(m_true, std::span<double>(d));
    qp.fq.toeplitz->apply(m_true, std::span<double>(q_true));
    for (auto& v : d) v += qp.noise.sigma * rng.normal();

    const auto fc = qp.predictor->predict(d);
    for (std::size_t i = 0; i < nq; ++i) {
      if (fc.stddev[i] < 1e-14) continue;  // unidentified QoI: skip
      ++total;
      if (q_true[i] >= fc.lower95[i] && q_true[i] <= fc.upper95[i]) ++covered;
    }
  }
  ASSERT_GT(total, 50);
  const double rate = static_cast<double>(covered) / total;
  EXPECT_GT(rate, 0.85);
  EXPECT_LE(rate, 1.0);
}

TEST(Forecast, FieldAccessorIndexesTimeMajor) {
  Forecast fc;
  fc.num_gauges = 2;
  fc.num_times = 3;
  fc.mean = {0, 1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(fc.at(fc.mean, 0, 0), 0.0);
  EXPECT_DOUBLE_EQ(fc.at(fc.mean, 1, 0), 2.0);
  EXPECT_DOUBLE_EQ(fc.at(fc.mean, 2, 1), 5.0);
}

TEST(QoiPredictor, PredictRejectsWrongSize) {
  QoiProblem qp;
  std::vector<double> wrong(3, 0.0);
  EXPECT_THROW(qp.predictor->predict(wrong), std::invalid_argument);
}

}  // namespace
}  // namespace tsunami
