// Tests for the streaming assimilation engine: exact streaming/batch
// equivalence at the final tick, exact truncated-posterior semantics
// mid-stream (against explicit prefix solves), the monotone credible-interval
// schedule, the same bits from MAP-tracking and lean engines, the causal MAP
// (exact zeros beyond the observed blocks and a dense reference), replay
// determinism, MAP bits independent of the read cadence, and input
// validation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <thread>

#include "core/digital_twin.hpp"

namespace tsunami {
namespace {

/// One tiny twin + event + offline phases + streaming engine, shared by the
/// whole suite (the offline build dominates test wall time).
class StreamingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
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
    event_ = new SyntheticEvent(
        twin_->synthesize(RuptureScenario(rc), rng));
    twin_->run_offline(event_->noise);
    engine_ = new StreamingEngine(twin_->make_streaming({.track_map = true}));
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete event_;
    delete twin_;
    engine_ = nullptr;
    event_ = nullptr;
    twin_ = nullptr;
  }

  /// Observation block of one tick.
  static std::span<const double> block(std::size_t tick) {
    return std::span<const double>(event_->d_obs)
        .subspan(tick * engine_->block_size(), engine_->block_size());
  }

  /// Stream the first `ticks` intervals into a fresh assimilator.
  static StreamingAssimilator stream(std::size_t ticks) {
    StreamingAssimilator assim = engine_->start();
    for (std::size_t t = 0; t < ticks; ++t) assim.push(t, block(t));
    return assim;
  }

  /// Parameters per time block (Nm).
  static std::size_t spatial_dim() {
    return engine_->parameter_dim() / engine_->num_ticks();
  }

  /// Count of m_map entries beyond the observed parameter blocks
  /// (column >= ticks Nm) that are not exactly 0.0.
  static std::size_t nonzeros_beyond(const std::vector<double>& m,
                                     std::size_t ticks) {
    std::size_t bad = 0;
    for (std::size_t c = ticks * spatial_dim(); c < m.size(); ++c)
      bad += m[c] != 0.0 ? 1u : 0u;
    return bad;
  }

  static DigitalTwin* twin_;
  static SyntheticEvent* event_;
  static StreamingEngine* engine_;
};

DigitalTwin* StreamingTest::twin_ = nullptr;
SyntheticEvent* StreamingTest::event_ = nullptr;
StreamingEngine* StreamingTest::engine_ = nullptr;

TEST_F(StreamingTest, EngineDimensionsMatchTwin) {
  EXPECT_EQ(engine_->data_dim(), twin_->data_dim());
  EXPECT_EQ(engine_->parameter_dim(), twin_->parameter_dim());
  EXPECT_EQ(engine_->num_ticks(), twin_->time_grid().num_intervals);
  EXPECT_EQ(engine_->block_size() * engine_->num_ticks(), engine_->data_dim());
  EXPECT_TRUE(engine_->tracks_map());
  EXPECT_GT(engine_->precompute_seconds(), 0.0);
}

// The ISSUE acceptance criterion: after the final tick the streaming state
// must match the batch solve on the full data vector to <= 1e-12 relative
// error — the streaming path is exact algebra, not an approximation.
TEST_F(StreamingTest, FinalTickMatchesBatchInfer) {
  const StreamingAssimilator assim = stream(engine_->num_ticks());
  ASSERT_TRUE(assim.complete());
  const InversionResult batch = twin_->infer(event_->d_obs);

  EXPECT_LE(DigitalTwin::relative_error(assim.map_estimate(), batch.m_map),
            1e-12);
  const Forecast fc = assim.forecast();
  EXPECT_LE(DigitalTwin::relative_error(fc.mean, batch.forecast.mean), 1e-12);
  EXPECT_LE(DigitalTwin::relative_error(fc.stddev, batch.forecast.stddev),
            1e-12);
  EXPECT_LE(DigitalTwin::relative_error(fc.lower95, batch.forecast.lower95),
            1e-12);
}

// Mid-stream the assimilator must hold the *exact* truncated posterior:
// the solution of the leading (t Nd) subsystem of K, lifted through the
// prefix of G*. Verified against explicit prefix solves on the same factor.
TEST_F(StreamingTest, MidStreamMatchesTruncatedPosterior) {
  const DenseCholesky& chol = twin_->hessian().cholesky();
  const std::size_t nd = engine_->block_size();
  for (const std::size_t ticks :
       {std::size_t{1}, engine_->num_ticks() / 2, engine_->num_ticks() - 1}) {
    const StreamingAssimilator assim = stream(ticks);
    const std::size_t p = ticks * nd;

    // u = K_p^{-1} d_p via prefix forward + backward substitution.
    std::vector<double> u(event_->d_obs.begin(),
                          event_->d_obs.begin() +
                              static_cast<std::ptrdiff_t>(p));
    chol.forward_solve_range(u, 0, p);
    chol.backward_solve_prefix(u, p);

    // m(t) = Gamma_prior F_p^T u.
    std::vector<double> m_ref(twin_->parameter_dim());
    twin_->posterior().apply_gstar_prefix(u, ticks,
                                          std::span<double>(m_ref));
    EXPECT_LE(DigitalTwin::relative_error(assim.map_estimate(), m_ref), 1e-11)
        << "ticks = " << ticks;

    // q(t) = V_p^T u = Fq Gamma_prior F_p^T u = Fq m(t): push the reference
    // MAP through the goal operator.
    std::vector<double> q_ref(engine_->qoi_dim());
    twin_->predictor().apply_fq_mean(m_ref, std::span<double>(q_ref));
    EXPECT_LE(DigitalTwin::relative_error(assim.qoi_mean(), q_ref), 1e-11)
        << "ticks = " << ticks;
  }
}

// The causal snapshot: apply_gstar_prefix runs the prior on the observed
// parameter blocks only. Blocks before t keep the bits of the full path
// (the prior over all Nt blocks of the zero-padded transpose), and blocks
// from t on are exact zeros, whatever the output held before.
TEST_F(StreamingTest, GstarPrefixIsCausal) {
  const Posterior& post = twin_->posterior();
  const std::size_t nt = engine_->num_ticks();
  const std::size_t nd = engine_->block_size();
  const std::size_t np = engine_->parameter_dim();
  for (const std::size_t t : {std::size_t{0}, std::size_t{1}, nt / 2, nt}) {
    const auto y = std::span<const double>(event_->d_obs).first(t * nd);
    std::vector<double> ft(np), full(np);
    post.forward_map().apply_transpose_prefix(y, t, std::span<double>(ft));
    post.prior().apply_time_blocks(ft, std::span<double>(full), nt);
    std::vector<double> m(np, 1.0);
    post.apply_gstar_prefix(y, t, std::span<double>(m));
    for (std::size_t c = 0; c < np; ++c)
      EXPECT_EQ(m[c], c < t * spatial_dim() ? full[c] : 0.0)
          << "t " << t << ", entry " << c;
  }
}

// More data can only tighten the posterior: the precomputed stddev schedule
// must decrease entrywise from the prior width down to the batch width.
TEST_F(StreamingTest, StddevScheduleShrinksMonotonically) {
  const auto prior_sd = engine_->stddev_after(0);
  for (double s : prior_sd) EXPECT_GT(s, 0.0);
  for (std::size_t t = 1; t <= engine_->num_ticks(); ++t) {
    const auto prev = engine_->stddev_after(t - 1);
    const auto cur = engine_->stddev_after(t);
    for (std::size_t i = 0; i < cur.size(); ++i)
      EXPECT_LE(cur[i], prev[i] + 1e-14) << "tick " << t << " entry " << i;
  }
  // Final row = the batch posterior stddev.
  const auto final_sd = engine_->stddev_after(engine_->num_ticks());
  const auto& batch_sd = twin_->predictor().predict(event_->d_obs).stddev;
  for (std::size_t i = 0; i < batch_sd.size(); ++i)
    EXPECT_NEAR(final_sd[i], batch_sd[i], 1e-12 * (batch_sd[i] + 1.0));
  // Half the window leaves the intervals strictly wider than the full data.
  double half_w = 0.0, full_w = 0.0;
  for (double s : engine_->stddev_after(engine_->num_ticks() / 2)) half_w += s;
  for (double s : batch_sd) full_w += s;
  EXPECT_GT(half_w, full_w);
}

// The rolling forecast's band must come from the schedule row of the
// current tick, so intervals tighten with every push.
TEST_F(StreamingTest, ForecastBandsTightenAsDataArrives) {
  StreamingAssimilator assim = engine_->start();
  double prev_width = 0.0;
  for (double s : assim.forecast().stddev) prev_width += s;
  for (std::size_t t = 0; t < engine_->num_ticks(); ++t) {
    assim.push(t, block(t));
    const Forecast fc = assim.forecast();
    double width = 0.0;
    for (double s : fc.stddev) width += s;
    EXPECT_LE(width, prev_width + 1e-14) << "tick " << t;
    prev_width = width;
    for (std::size_t i = 0; i < fc.mean.size(); ++i) {
      EXPECT_NEAR(fc.upper95[i] - fc.mean[i], 1.96 * fc.stddev[i], 1e-12);
      EXPECT_NEAR(fc.mean[i] - fc.lower95[i], 1.96 * fc.stddev[i], 1e-12);
    }
  }
}

// Every engine serves the MAP from the causal snapshot, so MAP tracking
// only decides whether map_estimate() may be called. A track_map engine and
// a lean one fed the same blocks must give the same forecast bits, and
// map_estimate() the bits of map_snapshot() on either. Checked after 0, 1,
// nt/2 and nt ticks, healthy and through golden replay (c)'s fault script
// (channel 2 dropped at nt/3 and restored at 2nt/3, channel 0 lost at nt/2).
TEST_F(StreamingTest, TrackingAndLeanEnginesServeTheSameBits) {
  const StreamingEngine lean = twin_->make_streaming({.track_map = false});
  const std::size_t nt = engine_->num_ticks(), nd = engine_->block_size();
  const auto same_bits = [](const std::vector<double>& x,
                            const std::vector<double>& y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
  };
  std::vector<std::uint8_t> lossy(nd, 1);
  lossy[0] = 0;
  for (const bool faults : {false, true}) {
    const std::string label = faults ? "faulted" : "healthy";
    StreamingAssimilator tracking = engine_->start(), plain = lean.start();
    std::size_t checked = 0;
    for (std::size_t t = 0; t <= nt; ++t) {
      if (t == 0 || t == 1 || t == nt / 2 || t == nt) {
        const std::vector<double> snapshot = tracking.map_snapshot();
        EXPECT_TRUE(same_bits(tracking.map_estimate(), snapshot))
            << label << ": map_estimate vs map_snapshot after " << t;
        EXPECT_TRUE(same_bits(plain.map_snapshot(), snapshot))
            << label << ": lean vs tracking snapshot after " << t;
        const Forecast ft = tracking.forecast(), fl = plain.forecast();
        EXPECT_TRUE(same_bits(ft.mean, fl.mean))
            << label << ": forecast mean after " << t;
        EXPECT_TRUE(same_bits(ft.stddev, fl.stddev))
            << label << ": forecast stddev after " << t;
        ++checked;
      }
      if (t == nt) break;
      for (StreamingAssimilator* x : {&tracking, &plain}) {
        if (faults && t == nt / 3) x->drop_sensor(2);
        if (faults && t == 2 * nt / 3) x->restore_sensor(2);
        x->push(t, block(t),
                faults && t == nt / 2 ? std::span<const std::uint8_t>(lossy)
                                      : std::span<const std::uint8_t>{});
      }
    }
    EXPECT_EQ(checked, 4u) << label;
    EXPECT_EQ(tracking.degraded(), faults) << label;
    EXPECT_EQ(plain.degraded(), faults) << label;
  }
}

// The MAP is causal: after the push of tick t, the parameter blocks > t
// (prior mean zero, not yet observed) must hold exactly 0.0, which the
// snapshot's G* lift writes — through serial push, push_many, the degraded
// projection and a reduced() engine alike.
TEST_F(StreamingTest, MapIsExactlyZeroBeyondObservedBlocks) {
  const std::size_t nt = engine_->num_ticks();
  StreamingAssimilator serial = engine_->start();
  for (std::size_t t = 0; t < nt; ++t) {
    serial.push(t, block(t));
    EXPECT_EQ(nonzeros_beyond(serial.map_estimate(), t + 1), 0u)
        << "serial, tick " << t;
  }

  // push_many, K = 4: per-event noise on the shared truth.
  constexpr unsigned kEvents = 4;
  std::vector<std::vector<double>> d(kEvents, event_->d_true);
  std::vector<StreamingAssimilator> batch;
  for (unsigned e = 0; e < kEvents; ++e) {
    Rng rng(300 + e);
    for (auto& v : d[e]) v += event_->noise.sigma * rng.normal();
    batch.push_back(engine_->start());
  }
  std::vector<StreamingAssimilator*> evs;
  for (auto& b : batch) evs.push_back(&b);
  const std::size_t nd = engine_->block_size();
  for (std::size_t t = 0; t < nt; ++t) {
    std::vector<std::span<const double>> blocks;
    for (unsigned e = 0; e < kEvents; ++e)
      blocks.push_back(std::span<const double>(d[e]).subspan(t * nd, nd));
    StreamingAssimilator::push_many(evs, t, blocks);
    for (unsigned e = 0; e < kEvents; ++e)
      EXPECT_EQ(nonzeros_beyond(batch[e].map_estimate(), t + 1), 0u)
          << "push_many, event " << e << ", tick " << t;
  }

  // Degraded: channel 1 dropped mid-stream, so map_estimate() solves from
  // z with the dead rows projected out.
  StreamingAssimilator degraded = engine_->start();
  for (std::size_t t = 0; t < nt; ++t) {
    if (t == nt / 2) degraded.drop_sensor(1);
    degraded.push(t, block(t));
    ASSERT_EQ(degraded.degraded(), t >= nt / 2);
    EXPECT_EQ(nonzeros_beyond(degraded.map_estimate(), t + 1), 0u)
        << "degraded, tick " << t;
  }

  // reduced(): the snapshot against the decoupled factor.
  SensorMask mask(nd);
  mask.drop(0);
  const StreamingEngine reduced = engine_->reduced(mask);
  StreamingAssimilator on_reduced = reduced.start();
  for (std::size_t t = 0; t < nt; ++t) {
    on_reduced.push(t, block(t));
    EXPECT_EQ(nonzeros_beyond(on_reduced.map_estimate(), t + 1), 0u)
        << "reduced, tick " << t;
  }
}

// The MAP against an independent dense reference: W* = L^{-1} F Gamma_prior
// built whole in the test through the public API (G* = Gamma_prior F^T over
// the L^{-T} unit columns, one transpose matvec each) and swept over
// z = L^{-1} d one tick block at a time. The engine keeps no such operator:
// it solves backward and lifts on every read. W*'s entries beyond the causal
// triangle are FFT roundoff, so the two agree to roundoff at every tick.
TEST_F(StreamingTest, MapEstimateMatchesDenseReferenceEveryTick) {
  const Posterior& post = twin_->posterior();
  const DenseCholesky& chol = twin_->hessian().cholesky();
  const std::size_t n = engine_->data_dim();
  const std::size_t np = engine_->parameter_dim();
  const std::size_t nd = engine_->block_size();
  Matrix wstar(n, np);  // dense
  std::vector<double> col(n), ft(np);
  for (std::size_t j = 0; j < n; ++j) {
    std::fill(col.begin(), col.end(), 0.0);
    col[j] = 1.0;
    chol.backward_solve_in_place(col);  // L^{-T} e_j
    post.forward_map().apply_transpose(col, std::span<double>(ft));
    post.prior().apply_time_blocks(ft, wstar.row(j), engine_->num_ticks());
  }

  std::vector<double> z(event_->d_obs);
  chol.forward_solve_in_place(std::span<double>(z));
  std::vector<double> m_ref(np, 0.0);
  StreamingAssimilator assim = engine_->start();
  for (std::size_t t = 0; t < engine_->num_ticks(); ++t) {
    assim.push(t, block(t));
    for (std::size_t j = t * nd; j < (t + 1) * nd; ++j) {
      const auto row = wstar.row(j);
      for (std::size_t c = 0; c < np; ++c) m_ref[c] += z[j] * row[c];
    }
    EXPECT_LE(DigitalTwin::relative_error(assim.map_estimate(), m_ref), 1e-12)
        << "tick " << t;
  }
}

TEST_F(StreamingTest, NonTrackingEngineStillServesSnapshots) {
  const StreamingEngine lean = twin_->make_streaming({.track_map = false});
  StreamingAssimilator assim = lean.start();
  for (std::size_t t = 0; t < lean.num_ticks(); ++t) assim.push(t, block(t));
  EXPECT_THROW((void)assim.map_estimate(), std::logic_error);
  const InversionResult batch = twin_->infer(event_->d_obs);
  EXPECT_LE(DigitalTwin::relative_error(assim.map_snapshot(), batch.m_map),
            1e-11);
  // The forecast path does not depend on MAP tracking.
  EXPECT_LE(DigitalTwin::relative_error(assim.forecast().mean,
                                        batch.forecast.mean),
            1e-12);
}

// forecast_into is the allocation-free publish path of the warning service:
// it must reproduce forecast() exactly, including when one Forecast object
// is recycled across ticks (stale buffers fully overwritten).
TEST_F(StreamingTest, ForecastIntoMatchesForecastAcrossTicks) {
  StreamingAssimilator assim = engine_->start();
  Forecast recycled;
  for (std::size_t t = 0; t < engine_->num_ticks(); ++t) {
    assim.push(t, block(t));
    assim.forecast_into(recycled);
    const Forecast fresh = assim.forecast();
    EXPECT_EQ(recycled.num_gauges, fresh.num_gauges);
    EXPECT_EQ(recycled.num_times, fresh.num_times);
    EXPECT_EQ(recycled.mean, fresh.mean);
    EXPECT_EQ(recycled.stddev, fresh.stddev);
    EXPECT_EQ(recycled.lower95, fresh.lower95);
    EXPECT_EQ(recycled.upper95, fresh.upper95);
  }
}

// Concurrent per-event workspaces over one shared engine (the TSan CI
// preset exercises this): N threads each stream their own assimilator —
// whose map_snapshot scratch and Posterior workspace are per-instance —
// and every result must be bit-identical to the serial replay.
TEST_F(StreamingTest, ConcurrentAssimilatorsWithOwnWorkspacesAreExact) {
  const std::size_t ticks = engine_->num_ticks();
  StreamingAssimilator serial = engine_->start();
  for (std::size_t t = 0; t < ticks; ++t) serial.push(t, block(t));
  const std::vector<double> q_serial = serial.qoi_mean();
  const std::vector<double> m_serial = serial.map_snapshot();

  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<double>> q(kThreads), m(kThreads);
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (std::size_t ti = 0; ti < kThreads; ++ti) {
    pool.emplace_back([&, ti] {
      StreamingAssimilator assim = engine_->start();
      for (std::size_t t = 0; t < ticks; ++t) assim.push(t, block(t));
      q[ti] = assim.qoi_mean();
      m[ti] = assim.map_snapshot();
    });
  }
  for (auto& th : pool) th.join();
  for (std::size_t ti = 0; ti < kThreads; ++ti) {
    EXPECT_EQ(q[ti], q_serial) << "thread " << ti;
    EXPECT_EQ(m[ti], m_serial) << "thread " << ti;
  }
}

TEST_F(StreamingTest, ResetReplayIsBitIdentical) {
  StreamingAssimilator assim = engine_->start();
  for (std::size_t t = 0; t < engine_->num_ticks(); ++t) assim.push(t, block(t));
  const std::vector<double> q_first = assim.qoi_mean();
  const std::vector<double> m_first = assim.map_estimate();

  assim.reset();
  EXPECT_EQ(assim.ticks_received(), 0u);
  for (std::size_t t = 0; t < engine_->num_ticks(); ++t) assim.push(t, block(t));
  // Identical inputs through identical fixed-order accumulations: bitwise
  // equal, not merely close.
  EXPECT_EQ(assim.qoi_mean(), q_first);
  EXPECT_EQ(assim.map_estimate(), m_first);
}

// map_estimate() recomputes the MAP from z on every read, and the
// per-assimilator scratch it reuses must carry nothing from one read to the
// next, so the MAP bits must not depend on when, or how often, it is read.
// The same blocks feed four assimilators of one track_map engine: (a) read
// after every push, (b) read once at the end, (c) read after ticks 1, 7,
// nt/2 and nt - 1, and (d) pushed through push_many beside a second event
// and read at the end. Healthy, through golden replay (d)'s fault script (channel 2
// dropped at nt/3 and restored at 2nt/3, channel 0 lost at nt/2), and with
// a mid-event reset() and replay of all four.
TEST_F(StreamingTest, MapEstimateBitsDoNotDependOnReadCadence) {
  const std::size_t nt = engine_->num_ticks(), nd = engine_->block_size();
  const auto same_bits = [](const std::vector<double>& x,
                            const std::vector<double>& y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
  };
  const auto scattered = [nt](std::size_t t) {
    return t == 1 || t == 7 || t == nt / 2 || t == nt - 1;
  };
  std::vector<std::uint8_t> lossy(nd, 1);
  lossy[0] = 0;
  std::vector<double> partner = event_->d_true;
  Rng rng(77);
  for (auto& v : partner) v += event_->noise.sigma * rng.normal();

  for (const bool faults : {false, true}) {
    std::vector<double> reference;
    for (const bool with_reset : {false, true}) {
      const std::string label = std::string(faults ? "faulted" : "healthy") +
                                (with_reset ? ", reset" : "");
      StreamingAssimilator a = engine_->start(), b = engine_->start(),
                           c = engine_->start(), d = engine_->start(),
                           d_partner = engine_->start();
      StreamingAssimilator* const serial[] = {&a, &b, &c};
      StreamingAssimilator* const batch[] = {&d, &d_partner};
      const auto run = [&](std::size_t ticks) {
        for (std::size_t t = 0; t < ticks; ++t) {
          for (StreamingAssimilator* x : {&a, &b, &c, &d}) {
            if (faults && t == nt / 3) x->drop_sensor(2);
            if (faults && t == 2 * nt / 3) x->restore_sensor(2);
          }
          const std::span<const double> partner_block =
              std::span<const double>(partner).subspan(t * nd, nd);
          if (faults && t == nt / 2) {
            // push_many takes no validity bitmap: the lossy block goes
            // through push() on both events of the batch.
            for (StreamingAssimilator* x : serial) x->push(t, block(t), lossy);
            d.push(t, block(t), lossy);
            d_partner.push(t, partner_block);
          } else {
            for (StreamingAssimilator* x : serial) x->push(t, block(t));
            const std::span<const double> blocks[] = {block(t), partner_block};
            StreamingAssimilator::push_many(batch, t, blocks);
          }
          const std::vector<double> read_a = a.map_estimate();
          if (scattered(t)) {
            EXPECT_TRUE(same_bits(c.map_estimate(), read_a))
                << label << ": (c) differs from (a) after tick " << t;
          }
        }
      };
      if (with_reset) {
        run(nt / 2 + 3);
        for (StreamingAssimilator* x : {&a, &b, &c, &d, &d_partner})
          x->reset();
      }
      run(nt);
      const std::vector<double> final_a = a.map_estimate();
      EXPECT_TRUE(same_bits(b.map_estimate(), final_a)) << label << ": (b)";
      EXPECT_TRUE(same_bits(c.map_estimate(), final_a)) << label << ": (c)";
      EXPECT_TRUE(same_bits(d.map_estimate(), final_a)) << label << ": (d)";
      EXPECT_EQ(a.degraded(), faults) << label;
      if (with_reset) {
        EXPECT_TRUE(same_bits(final_a, reference)) << label;
      } else {
        reference = final_a;
      }
    }
  }
}

TEST_F(StreamingTest, PushValidation) {
  StreamingAssimilator assim = engine_->start();
  std::vector<double> b(engine_->block_size(), 0.0);
  EXPECT_THROW(assim.push(1, b), std::invalid_argument);  // out of order
  EXPECT_THROW(
      assim.push(0, std::span<const double>(b).first(b.size() - 1)),
      std::invalid_argument);  // wrong block size
  assim.push(0, b);
  EXPECT_THROW(assim.push(0, b), std::invalid_argument);  // replayed tick
  for (std::size_t t = 1; t < engine_->num_ticks(); ++t) assim.push(t, b);
  EXPECT_TRUE(assim.complete());
  EXPECT_THROW(assim.push(engine_->num_ticks(), b), std::logic_error);
}

TEST_F(StreamingTest, EngineRequiresOfflinePhases) {
  const DigitalTwin cold(TwinConfig::tiny());
  EXPECT_THROW((void)cold.make_streaming(), std::logic_error);
}

}  // namespace
}  // namespace tsunami
