// The determinism property suite: every parallel_for-powered result in the
// twin must be BITWISE identical at any worker count. The pool's contract
// makes this testable once, centrally: the chunk grid depends only on the
// item count (never on the worker count), chunks write disjoint data, and
// reductions combine per-chunk partials serially in chunk order — so worker
// count and scheduling order can change WHO computes a chunk but never WHAT
// is computed or in which order partials meet. Each test recomputes a result
// at the parameterized worker count and compares it bitwise (EXPECT_EQ on
// doubles, no tolerance) against a reference computed at 1 worker in
// SetUpTestSuite. This suite replaces the scattered per-suite thread-count
// reproducibility tests (e.g. the old test_scenario_bank copy).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "core/digital_twin.hpp"
#include "core/scenario_bank.hpp"
#include "linalg/blas.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "util/rng.hpp"

namespace tsunami {
namespace {

/// Worker counts under test, deduplicated: hardware_concurrency() may equal
/// one of the fixed counts on small machines, and duplicate parameter names
/// are a gtest registration error.
std::vector<std::size_t> worker_counts() {
  std::vector<std::size_t> counts = {
      1, 2, 4, std::max<std::size_t>(1, std::thread::hardware_concurrency())};
  std::vector<std::size_t> unique;
  for (std::size_t c : counts)
    if (std::find(unique.begin(), unique.end(), c) == unique.end())
      unique.push_back(c);
  return unique;
}

class WorkerCountTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  static constexpr unsigned kBankSize = 4;
  static constexpr unsigned kBatch = 4;

  static void SetUpTestSuite() {
    // All references are computed serially: 1 worker is the ground truth
    // every other worker count must reproduce bit-for-bit.
    ThreadPool::global().resize(1);

    twin_ = new DigitalTwin(TwinConfig::tiny());
    RuptureConfig rc;
    Asperity a;
    a.x0 = 0.3 * twin_->mesh().length_x();
    a.y0 = 0.5 * twin_->mesh().length_y();
    a.rx = 16e3;
    a.ry = 24e3;
    a.peak_uplift = 2.0;
    rc.asperities.push_back(a);
    rc.hypocenter_x = a.x0;
    rc.hypocenter_y = a.y0;
    Rng rng(5);
    event_ = new SyntheticEvent(twin_->synthesize(RuptureScenario(rc), rng));
    twin_->run_offline(event_->noise);
    engine_ = new StreamingEngine(twin_->make_streaming({.track_map = true}));

    ref_infer_ = new InversionResult(twin_->infer(event_->d_obs));

    ScenarioBank bank(*twin_, ScenarioBank::spread(*twin_, kBankSize));
    bank.synthesize(7);
    ref_bank_obs_ = new std::vector<std::vector<double>>();
    for (const SyntheticEvent& e : bank.events())
      ref_bank_obs_->push_back(e.d_obs);
    ref_sweep_ =
        new std::vector<ScenarioResult>(bank.sweep(*engine_).scenarios);

    ref_push_ = new std::vector<Forecast>(serial_push_forecasts());
    ref_maps_ = new std::vector<std::vector<double>>(serial_push_maps());

    const auto v = big_vectors();
    ref_dot_ = dot(v.first, v.second);
    ref_amax_ = amax(v.first);
  }

  static void TearDownTestSuite() {
    ThreadPool::global().resize(0);  // back to the environment default
    delete ref_maps_;
    delete ref_push_;
    delete ref_sweep_;
    delete ref_bank_obs_;
    delete ref_infer_;
    delete engine_;
    delete event_;
    delete twin_;
    ref_maps_ = nullptr;
    ref_push_ = nullptr;
    ref_sweep_ = nullptr;
    ref_bank_obs_ = nullptr;
    ref_infer_ = nullptr;
    engine_ = nullptr;
    event_ = nullptr;
    twin_ = nullptr;
  }

  void SetUp() override { ThreadPool::global().resize(GetParam()); }

  /// Per-event observations: the shared noiseless data re-noised from a
  /// per-event stream (same construction as the service tests).
  static std::vector<double> obs(unsigned e) {
    std::vector<double> d = event_->d_true;
    Rng rng(1000 + e);
    for (auto& v : d) v += event_->noise.sigma * rng.normal();
    return d;
  }

  static std::span<const double> block(const std::vector<double>& d,
                                       std::size_t t) {
    const std::size_t nd = engine_->block_size();
    return std::span<const double>(d).subspan(t * nd, nd);
  }

  /// kBatch full serial replays (the push_many reference).
  static std::vector<Forecast> serial_push_forecasts() {
    std::vector<Forecast> out;
    for (unsigned e = 0; e < kBatch; ++e) {
      StreamingAssimilator assim = engine_->start();
      const std::vector<double> d = obs(e);
      for (std::size_t t = 0; t < engine_->num_ticks(); ++t)
        assim.push(t, block(d, t));
      out.push_back(assim.forecast());
    }
    return out;
  }

  static std::vector<std::vector<double>> serial_push_maps() {
    std::vector<std::vector<double>> out;
    for (unsigned e = 0; e < kBatch; ++e) {
      StreamingAssimilator assim = engine_->start();
      const std::vector<double> d = obs(e);
      for (std::size_t t = 0; t < engine_->num_ticks(); ++t)
        assim.push(t, block(d, t));
      out.push_back(assim.map_estimate());
    }
    return out;
  }

  /// Vectors large enough to clear the BLAS parallel threshold (1 << 14).
  static std::pair<std::vector<double>, std::vector<double>> big_vectors() {
    Rng rng(31);
    const std::size_t n = std::size_t{1} << 16;
    return {rng.normal_vector(n), rng.normal_vector(n)};
  }

  static DigitalTwin* twin_;
  static SyntheticEvent* event_;
  static StreamingEngine* engine_;
  static InversionResult* ref_infer_;
  static std::vector<std::vector<double>>* ref_bank_obs_;
  static std::vector<ScenarioResult>* ref_sweep_;
  static std::vector<Forecast>* ref_push_;
  static std::vector<std::vector<double>>* ref_maps_;
  static double ref_dot_;
  static double ref_amax_;
};

DigitalTwin* WorkerCountTest::twin_ = nullptr;
SyntheticEvent* WorkerCountTest::event_ = nullptr;
StreamingEngine* WorkerCountTest::engine_ = nullptr;
InversionResult* WorkerCountTest::ref_infer_ = nullptr;
std::vector<std::vector<double>>* WorkerCountTest::ref_bank_obs_ = nullptr;
std::vector<ScenarioResult>* WorkerCountTest::ref_sweep_ = nullptr;
std::vector<Forecast>* WorkerCountTest::ref_push_ = nullptr;
std::vector<std::vector<double>>* WorkerCountTest::ref_maps_ = nullptr;
double WorkerCountTest::ref_dot_ = 0.0;
double WorkerCountTest::ref_amax_ = 0.0;

TEST_P(WorkerCountTest, OfflineBuildAndInferenceAreInvariant) {
  // The whole pipeline end to end: phase 1-3 (parallel row builds, FFT
  // batches, factorization) on a FRESH twin, then phase 4 inference —
  // bitwise against the 1-worker reference.
  DigitalTwin twin(TwinConfig::tiny());
  twin.run_offline(event_->noise);
  const InversionResult got = twin.infer(event_->d_obs);
  EXPECT_EQ(got.forecast.mean, ref_infer_->forecast.mean);
  EXPECT_EQ(got.forecast.stddev, ref_infer_->forecast.stddev);
  EXPECT_EQ(got.forecast.lower95, ref_infer_->forecast.lower95);
  EXPECT_EQ(got.forecast.upper95, ref_infer_->forecast.upper95);
}

TEST_P(WorkerCountTest, ScenarioBankSynthesizeAndSweepAreInvariant) {
  ScenarioBank bank(*twin_, ScenarioBank::spread(*twin_, kBankSize));
  bank.synthesize(7);
  ASSERT_EQ(bank.events().size(), ref_bank_obs_->size());
  for (std::size_t i = 0; i < bank.events().size(); ++i)
    EXPECT_EQ(bank.events()[i].d_obs, (*ref_bank_obs_)[i]) << "scenario " << i;

  const SweepReport sweep = bank.sweep(*engine_);
  ASSERT_EQ(sweep.scenarios.size(), ref_sweep_->size());
  for (std::size_t i = 0; i < sweep.scenarios.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "scenario " << i);
    const ScenarioResult& got = sweep.scenarios[i];
    const ScenarioResult& ref = (*ref_sweep_)[i];
    EXPECT_EQ(got.confident_tick, ref.confident_tick);
    EXPECT_EQ(got.displacement_error, ref.displacement_error);
    EXPECT_EQ(got.displacement_correlation, ref.displacement_correlation);
    EXPECT_EQ(got.forecast_error, ref.forecast_error);
    EXPECT_EQ(got.forecast_correlation, ref.forecast_correlation);
    EXPECT_EQ(got.ci_coverage, ref.ci_coverage);
    EXPECT_EQ(got.peak_true_uplift, ref.peak_true_uplift);
    EXPECT_EQ(got.peak_inferred_uplift, ref.peak_inferred_uplift);
  }
}

TEST_P(WorkerCountTest, StreamingEngineBuildIsInvariant) {
  // The engine rebuilt at this worker count (R and the schedule), and the
  // MAP read as the causal snapshot, whose G* lift runs the pool-parallel
  // Toeplitz stack and prior: a full replay must match the replay on the
  // 1-worker engine bitwise, so the snapshot's bits do not depend on the
  // worker count.
  const StreamingEngine engine = twin_->make_streaming({.track_map = true});
  for (unsigned e = 0; e < kBatch; ++e) {
    StreamingAssimilator assim = engine.start();
    const std::vector<double> d = obs(e);
    for (std::size_t t = 0; t < engine.num_ticks(); ++t)
      assim.push(t, block(d, t));
    const Forecast f = assim.forecast();
    EXPECT_EQ(f.mean, (*ref_push_)[e].mean) << "event " << e;
    EXPECT_EQ(f.stddev, (*ref_push_)[e].stddev) << "event " << e;
    EXPECT_EQ(assim.map_estimate(), (*ref_maps_)[e]) << "event " << e;
  }
}

TEST_P(WorkerCountTest, BatchedCrossEventPushMatchesSerialBitwise) {
  // K tick-aligned events pushed through push_many at every tick must equal
  // K independent serial replays — at this worker count AND bitwise equal
  // to the 1-worker reference.
  std::vector<std::vector<double>> d;
  std::vector<StreamingAssimilator> batch;
  for (unsigned e = 0; e < kBatch; ++e) {
    d.push_back(obs(e));
    batch.push_back(engine_->start());
  }
  std::vector<StreamingAssimilator*> evs;
  for (auto& b : batch) evs.push_back(&b);
  for (std::size_t t = 0; t < engine_->num_ticks(); ++t) {
    std::vector<std::span<const double>> blocks;
    blocks.reserve(kBatch);
    for (unsigned e = 0; e < kBatch; ++e) blocks.push_back(block(d[e], t));
    StreamingAssimilator::push_many(evs, t, blocks);
  }
  for (unsigned e = 0; e < kBatch; ++e) {
    const Forecast f = batch[e].forecast();
    EXPECT_EQ(f.mean, (*ref_push_)[e].mean) << "event " << e;
    EXPECT_EQ(f.stddev, (*ref_push_)[e].stddev) << "event " << e;
    EXPECT_EQ(batch[e].map_estimate(), (*ref_maps_)[e]) << "event " << e;
  }
}

TEST_P(WorkerCountTest, ReductionsAreInvariant) {
  // dot/amax combine per-chunk partials serially in chunk order: the sum
  // tree is fixed by n alone, so the rounded result is exact-equal.
  const auto v = big_vectors();
  EXPECT_EQ(dot(v.first, v.second), ref_dot_);
  EXPECT_EQ(amax(v.first), ref_amax_);
  const double s =
      parallel_reduce_sum(v.first.size(), [&](std::size_t i) {
        return v.first[i] * v.second[i];
      });
  EXPECT_EQ(s, ref_dot_);
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, WorkerCountTest,
                         ::testing::ValuesIn(worker_counts()),
                         [](const auto& param_info) {
                           return "workers" + std::to_string(param_info.param);
                         });

}  // namespace
}  // namespace tsunami
