// End-to-end tests of the DigitalTwin orchestration: offline phases, data
// synthesis, online inference, and inversion quality on a synthetic event.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/digital_twin.hpp"
#include "linalg/blas.hpp"

namespace tsunami {
namespace {

/// Shared fixture: one tiny twin with all phases run (expensive; reused).
class TwinTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    twin_ = new DigitalTwin(TwinConfig::tiny());
    RuptureConfig rc;
    Asperity a;
    a.x0 = 20e3;
    a.y0 = 40e3;
    a.rx = 14e3;
    a.ry = 20e3;
    a.peak_uplift = 1.5;
    rc.asperities.push_back(a);
    rc.hypocenter_x = 20e3;
    rc.hypocenter_y = 40e3;
    rc.rupture_speed = 2500.0;
    rc.rise_time = 12.0;
    scenario_ = new RuptureScenario(rc);
    Rng rng(2025);
    event_ = new SyntheticEvent(twin_->synthesize(*scenario_, rng));
    twin_->run_offline(event_->noise);
  }
  static void TearDownTestSuite() {
    delete event_;
    delete scenario_;
    delete twin_;
    event_ = nullptr;
    scenario_ = nullptr;
    twin_ = nullptr;
  }

  static DigitalTwin* twin_;
  static RuptureScenario* scenario_;
  static SyntheticEvent* event_;
};

DigitalTwin* TwinTest::twin_ = nullptr;
RuptureScenario* TwinTest::scenario_ = nullptr;
SyntheticEvent* TwinTest::event_ = nullptr;

TEST_F(TwinTest, ConfigProducesConsistentDimensions) {
  const auto& cfg = twin_->config();
  EXPECT_EQ(twin_->sensors().num_outputs(), cfg.num_sensors);
  EXPECT_EQ(twin_->gauges().num_outputs(), cfg.num_gauges);
  EXPECT_EQ(twin_->data_dim(), cfg.num_sensors * cfg.num_intervals);
  EXPECT_EQ(twin_->p2o().nt, cfg.num_intervals);
  EXPECT_EQ(twin_->parameter_dim(),
            twin_->model().source_map().parameter_dim() * cfg.num_intervals);
}

TEST_F(TwinTest, TimeGridRespectsCfl) {
  const auto& grid = twin_->time_grid();
  EXPECT_LE(grid.dt, twin_->model().cfl_timestep(twin_->config().cfl) + 1e-12);
  EXPECT_NEAR(grid.interval(), twin_->config().observation_dt, 1e-12);
}

TEST_F(TwinTest, SyntheticEventHasSignalAndNoise) {
  EXPECT_GT(amax(event_->d_true), 0.0);
  EXPECT_GT(amax(event_->q_true), 0.0);
  EXPECT_GT(event_->noise.sigma, 0.0);
  // Noise level ~1% of peak signal.
  EXPECT_NEAR(event_->noise.sigma, 0.01 * amax(event_->d_true),
              1e-12 * amax(event_->d_true));
  // d_obs differs from d_true but not wildly.
  double max_dev = 0.0;
  for (std::size_t i = 0; i < event_->d_true.size(); ++i)
    max_dev = std::max(max_dev,
                       std::abs(event_->d_obs[i] - event_->d_true[i]));
  EXPECT_GT(max_dev, 0.0);
  EXPECT_LT(max_dev, 6.0 * event_->noise.sigma);
}

TEST_F(TwinTest, OnlineInferenceIsFastAndFinite) {
  const auto result = twin_->infer(event_->d_obs);
  EXPECT_EQ(result.m_map.size(), twin_->parameter_dim());
  for (double v : result.m_map) EXPECT_TRUE(std::isfinite(v));
  // "Real time": even this unoptimized CPU path must be far under a second
  // at the tiny scale; the paper's Phase 4 target is 0.2 s at full scale.
  EXPECT_LT(result.infer_seconds, 1.0);
  EXPECT_LT(result.predict_seconds, 0.1);
}

TEST_F(TwinTest, InferRefusesDataOfTheWrongLength) {
  // One entry short and one entry long: refused by name, before any solve.
  const std::size_t n = twin_->data_dim();
  for (const std::size_t size : {n - 1, n + 1}) {
    const std::vector<double> d(size, 0.0);
    try {
      (void)twin_->infer(d);
      ADD_FAILURE() << "infer accepted " << size << " entries";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("infer"), std::string::npos)
          << e.what();
    }
  }
}

TEST_F(TwinTest, InferredDisplacementCorrelatesWithTruth) {
  const auto result = twin_->infer(event_->d_obs);
  const auto b_true = twin_->displacement_field(event_->m_true);
  const auto b_map = twin_->displacement_field(result.m_map);
  ASSERT_EQ(b_true.size(), b_map.size());
  // Normalized correlation between inferred and true displacement.
  const double corr =
      dot(b_true, b_map) / (nrm2(b_true) * nrm2(b_map) + 1e-30);
  EXPECT_GT(corr, 0.5) << "inversion failed to recover the source pattern";
}

TEST_F(TwinTest, PredictedQoiTracksTrueQoi) {
  const auto result = twin_->infer(event_->d_obs);
  const auto& fc = result.forecast;
  ASSERT_EQ(fc.mean.size(), event_->q_true.size());
  // Correlation-based skill: at tiny scale the absolute wave heights at the
  // coast are small within the short window, so relative L2 error is an
  // unstable metric; the predicted series must still track the true one.
  const double corr = dot(fc.mean, event_->q_true) /
                      (nrm2(fc.mean) * nrm2(event_->q_true) + 1e-30);
  EXPECT_GT(corr, 0.4);
  // CI widths are finite and nonnegative.
  for (std::size_t i = 0; i < fc.stddev.size(); ++i) {
    EXPECT_GE(fc.stddev[i], 0.0);
    EXPECT_TRUE(std::isfinite(fc.stddev[i]));
  }
}

TEST_F(TwinTest, ForecastResidualConsistentWithCi) {
  // |q_true - q_map| should rarely exceed the 95% band by much; count gross
  // violations (allowing for model error at tiny scale).
  const auto result = twin_->infer(event_->d_obs);
  const auto& fc = result.forecast;
  int gross = 0, checked = 0;
  for (std::size_t i = 0; i < fc.mean.size(); ++i) {
    if (fc.stddev[i] < 1e-12) continue;
    ++checked;
    const double z = std::abs(event_->q_true[i] - fc.mean[i]) / fc.stddev[i];
    if (z > 6.0) ++gross;
  }
  ASSERT_GT(checked, 0);
  EXPECT_LT(static_cast<double>(gross) / checked, 0.35);
}

TEST_F(TwinTest, NoiselessDataGivesBetterRecovery) {
  const auto noisy = twin_->infer(event_->d_obs);
  const auto clean = twin_->infer(event_->d_true);
  const auto b_true = twin_->displacement_field(event_->m_true);
  const auto b_noisy = twin_->displacement_field(noisy.m_map);
  const auto b_clean = twin_->displacement_field(clean.m_map);
  const double err_noisy = DigitalTwin::relative_error(b_noisy, b_true);
  const double err_clean = DigitalTwin::relative_error(b_clean, b_true);
  EXPECT_LE(err_clean, err_noisy * 1.05);
}

TEST_F(TwinTest, DisplacementFieldIntegratesVelocity) {
  const std::size_t nm = twin_->model().source_map().parameter_dim();
  const std::size_t nt = twin_->time_grid().num_intervals;
  std::vector<double> m(nm * nt, 0.0);
  for (std::size_t t = 0; t < nt; ++t) m[t * nm + 3] = 1.0;  // 1 m/s at node 3
  const auto b = twin_->displacement_field(m);
  EXPECT_NEAR(b[3], twin_->time_grid().total_time(), 1e-9);
  EXPECT_DOUBLE_EQ(b[4], 0.0);
}

TEST_F(TwinTest, TimersRecordAllPhases) {
  const auto& t = twin_->timers();
  EXPECT_GT(t.total("phase1: form F"), 0.0);
  EXPECT_GT(t.total("phase1: form Fq"), 0.0);
  EXPECT_GT(t.total("phase2: form+factorize K"), 0.0);
  EXPECT_GT(t.total("phase3: QoI covariance + R"), 0.0);
  EXPECT_GT(t.total("form K"), 0.0);
  EXPECT_GT(t.total("factorize K"), 0.0);
}

TEST(DigitalTwinErrors, InferBeforeOfflineThrows) {
  DigitalTwin twin(TwinConfig::tiny());
  std::vector<double> d(twin.data_dim(), 0.0);
  EXPECT_THROW((void)twin.infer(d), std::logic_error);
  EXPECT_THROW(twin.run_phase2(NoiseModel{1.0}), std::logic_error);
  EXPECT_THROW(twin.run_phase3(), std::logic_error);
}

TEST(DigitalTwinStatics, RelativeErrorBehaves) {
  const std::vector<double> a{1.0, 2.0}, b{1.0, 2.0}, c{2.0, 4.0};
  EXPECT_DOUBLE_EQ(DigitalTwin::relative_error(a, b), 0.0);
  EXPECT_NEAR(DigitalTwin::relative_error(c, a), 1.0, 1e-12);
  EXPECT_THROW((void)DigitalTwin::relative_error(a, std::vector<double>{1.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace tsunami
