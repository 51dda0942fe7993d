// Tests of the scenario-ensemble subsystem: spec generation, synthesis,
// shared noise calibration, and the sweep (every scenario recovered, its
// final tick equal to batch infer(), sane latency and aggregates).

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <span>

#include "core/scenario_bank.hpp"
#include "linalg/blas.hpp"

namespace tsunami {
namespace {

/// Shared fixture: one tiny twin, a small bank, offline phases run once.
class ScenarioBankTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kBankSize = 4;

  static void SetUpTestSuite() {
    twin_ = new DigitalTwin(TwinConfig::tiny());
    bank_ = new ScenarioBank(*twin_,
                             ScenarioBank::spread(*twin_, kBankSize, 2026));
    bank_->synthesize(7);
    twin_->run_offline(bank_->shared_noise());
  }
  static void TearDownTestSuite() {
    delete bank_;
    delete twin_;
    bank_ = nullptr;
    twin_ = nullptr;
  }

  static DigitalTwin* twin_;
  static ScenarioBank* bank_;
};

DigitalTwin* ScenarioBankTest::twin_ = nullptr;
ScenarioBank* ScenarioBankTest::bank_ = nullptr;

TEST_F(ScenarioBankTest, SpreadProducesDistinctScenarios) {
  const auto& specs = bank_->specs();
  ASSERT_EQ(specs.size(), kBankSize);
  std::set<unsigned> seeds;
  for (const auto& s : specs) seeds.insert(s.seed);
  EXPECT_EQ(seeds.size(), kBankSize) << "asperity layouts must differ";
  // Magnitudes span the ladder and hypocenters sweep along strike.
  EXPECT_LT(specs.front().magnitude, specs.back().magnitude);
  EXPECT_LT(specs.front().hypocenter_y, specs.back().hypocenter_y);
  for (const auto& s : specs) {
    EXPECT_GE(s.magnitude, 7.9);
    EXPECT_LE(s.magnitude, 9.2);
    EXPECT_GT(s.rise_time, 0.0);
    EXPECT_GT(s.rupture_speed, 0.0);
    EXPECT_FALSE(s.name.empty());
  }
}

TEST_F(ScenarioBankTest, SpreadIsDeterministic) {
  const auto a = ScenarioBank::spread(*twin_, kBankSize, 2026);
  const auto b = ScenarioBank::spread(*twin_, kBankSize, 2026);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].magnitude, b[i].magnitude);
    EXPECT_DOUBLE_EQ(a[i].hypocenter_y, b[i].hypocenter_y);
    EXPECT_EQ(a[i].seed, b[i].seed);
  }
}

TEST_F(ScenarioBankTest, SynthesisProducesDistinctSignals) {
  const auto& events = bank_->events();
  ASSERT_EQ(events.size(), kBankSize);
  for (const auto& ev : events) {
    EXPECT_GT(amax(ev.d_true), 0.0);
    EXPECT_GT(ev.noise.sigma, 0.0);
  }
  // Different magnitudes give measurably different data energy.
  double lo = 1e300, hi = 0.0;
  for (const auto& ev : events) {
    const double peak = amax(ev.d_true);
    lo = std::min(lo, peak);
    hi = std::max(hi, peak);
  }
  EXPECT_GT(hi, 1.5 * lo);
}

TEST_F(ScenarioBankTest, SharedNoiseFloorAppliesToEveryEvent) {
  const NoiseModel nm = bank_->shared_noise();
  EXPECT_GT(nm.sigma, 0.0);
  for (const auto& ev : bank_->events()) {
    // One absolute noise floor across the bank (fixed instrument noise),
    // so the once-factorized Hessian is exactly calibrated for each event.
    EXPECT_DOUBLE_EQ(ev.noise.sigma, nm.sigma);
    double max_dev = 0.0;
    for (std::size_t j = 0; j < ev.d_true.size(); ++j)
      max_dev = std::max(max_dev, std::abs(ev.d_obs[j] - ev.d_true[j]));
    EXPECT_GT(max_dev, 0.0);
    EXPECT_LT(max_dev, 6.0 * nm.sigma);
  }
}

// Worker-count bit-reproducibility of synthesize() and sweep() lives in
// tests/test_determinism.cpp, the one parameterized suite covering every
// parallel_for-driven result.

TEST_F(ScenarioBankTest, BatchedOnlineSweepRecoversEveryScenario) {
  const StreamingEngine engine = twin_->make_streaming({.track_map = false});
  const SweepReport report = bank_->sweep(engine);
  ASSERT_EQ(report.scenarios.size(), kBankSize);
  for (const auto& r : report.scenarios) {
    EXPECT_TRUE(std::isfinite(r.displacement_error));
    EXPECT_TRUE(std::isfinite(r.forecast_error));
    EXPECT_TRUE(std::isfinite(r.forecast_correlation));
    // The inversion must recover each source pattern, not just one.
    // Displacement correlation is the robust seed-scale recovery metric
    // (see ScenarioResult::displacement_correlation).
    EXPECT_GT(r.displacement_correlation, 0.4) << r.spec.name;
    EXPECT_GT(r.peak_true_uplift, 0.0);
    EXPECT_GE(r.ci_coverage, 0.0);
    EXPECT_LE(r.ci_coverage, 1.0);
  }
  EXPECT_GT(report.mean_displacement_correlation, 0.55);
  EXPECT_FALSE(report.table().empty());
}

/// The seven accuracy metrics of a batch inversion, by the formulas the
/// sweep documents, so the sweep's final tick can be checked against
/// DigitalTwin::infer bit for bit.
ScenarioResult batch_metrics(const DigitalTwin& twin,
                             const SyntheticEvent& ev) {
  const InversionResult inv = twin.infer(ev.d_obs);
  const auto correlation = [](std::span<const double> a,
                              std::span<const double> b) {
    return dot(a, b) / (nrm2(a) * nrm2(b) + 1e-30);
  };
  ScenarioResult r;
  const auto b_true = twin.displacement_field(ev.m_true);
  const auto b_map = twin.displacement_field(inv.m_map);
  r.displacement_error = DigitalTwin::relative_error(b_map, b_true);
  r.displacement_correlation = correlation(b_map, b_true);
  r.peak_true_uplift = amax(b_true);
  r.peak_inferred_uplift = amax(b_map);
  const Forecast& fc = inv.forecast;
  r.forecast_error = DigitalTwin::relative_error(fc.mean, ev.q_true);
  r.forecast_correlation = correlation(fc.mean, ev.q_true);
  int inside = 0, total = 0;
  for (std::size_t j = 0; j < fc.mean.size(); ++j) {
    if (fc.stddev[j] < 1e-12) continue;
    ++total;
    if (ev.q_true[j] >= fc.lower95[j] && ev.q_true[j] <= fc.upper95[j])
      ++inside;
  }
  r.ci_coverage =
      total > 0 ? static_cast<double>(inside) / static_cast<double>(total)
                : 1.0;
  return r;
}

TEST_F(ScenarioBankTest, StreamingSweepConvergesToBatchForecasts) {
  // A lean engine: the sweep reads the MAP with map_snapshot() on any engine.
  const StreamingEngine engine = twin_->make_streaming({.track_map = false});
  const SweepReport sweep = bank_->sweep(engine);
  ASSERT_EQ(sweep.scenarios.size(), bank_->size());

  const std::size_t nt = engine.num_ticks();
  for (std::size_t i = 0; i < sweep.scenarios.size(); ++i) {
    const ScenarioResult& r = sweep.scenarios[i];
    EXPECT_EQ(r.ticks_total, nt);
    EXPECT_GE(r.confident_tick, 1u);
    EXPECT_LE(r.confident_tick, nt);
    EXPECT_GT(r.confident_seconds, 0.0);
    EXPECT_GT(r.mean_push_seconds, 0.0);
    EXPECT_GE(r.max_push_seconds, r.mean_push_seconds);
    // After the final tick the streaming forecast and MAP ARE the batch
    // ones, bit for bit, so every accuracy metric equals infer()'s.
    SCOPED_TRACE(testing::Message() << "scenario " << i);
    const ScenarioResult batch = batch_metrics(*twin_, bank_->events()[i]);
    EXPECT_EQ(r.displacement_error, batch.displacement_error);
    EXPECT_EQ(r.displacement_correlation, batch.displacement_correlation);
    EXPECT_EQ(r.forecast_error, batch.forecast_error);
    EXPECT_EQ(r.forecast_correlation, batch.forecast_correlation);
    EXPECT_EQ(r.ci_coverage, batch.ci_coverage);
    EXPECT_EQ(r.peak_true_uplift, batch.peak_true_uplift);
    EXPECT_EQ(r.peak_inferred_uplift, batch.peak_inferred_uplift);
  }
  EXPECT_GT(sweep.wall_seconds, 0.0);
  EXPECT_GT(sweep.mean_confident_fraction, 0.0);
  EXPECT_LE(sweep.mean_confident_fraction, 1.0);
  EXPECT_LE(sweep.mean_confident_seconds, sweep.max_confident_seconds + 1e-15);
  // Percentiles over EVERY per-tick push in the sweep (scenarios x ticks).
  EXPECT_EQ(sweep.push_latency.count, bank_->size() * nt);
  EXPECT_GT(sweep.push_latency.p50, 0.0);
  EXPECT_LE(sweep.push_latency.p50, sweep.push_latency.p95);
  EXPECT_LE(sweep.push_latency.p95, sweep.push_latency.p99);
  EXPECT_LE(sweep.push_latency.p99, sweep.push_latency.max);
  EXPECT_DOUBLE_EQ(sweep.push_latency.max, sweep.max_push_seconds);
  EXPECT_FALSE(sweep.table().empty());
}

TEST(ScenarioBankErrors, MisuseThrows) {
  DigitalTwin twin(TwinConfig::tiny());
  EXPECT_THROW(ScenarioBank(twin, {}), std::invalid_argument);
  EXPECT_THROW((void)ScenarioBank::spread(twin, 0), std::invalid_argument);
  ScenarioBank bank(twin, ScenarioBank::spread(twin, 2));
  EXPECT_THROW((void)bank.shared_noise(), std::logic_error);
}

TEST_F(ScenarioBankTest, StreamingSweepMisuseThrows) {
  const StreamingEngine engine = twin_->make_streaming({.track_map = false});
  EXPECT_THROW((void)bank_->sweep(engine, 0.0), std::invalid_argument);
  // NaN fails every comparison, so the check must refuse it explicitly: a
  // NaN tolerance would read every scenario as confident at tick 1.
  EXPECT_THROW((void)bank_->sweep(engine, std::nan("")),
               std::invalid_argument);
  ScenarioBank fresh(*twin_, bank_->specs());
  EXPECT_THROW((void)fresh.sweep(engine), std::logic_error);
}

}  // namespace
}  // namespace tsunami
