// Degraded-mode inference tests (sensor dropout + fault injection).
//
// The contract under test: a StreamingAssimilator whose sensors die
// mid-stream still holds an EXACT posterior — over the surviving network —
// after every subsequent push. Exactness is asserted three independent
// ways: against a from-scratch reduced-network engine
// (StreamingEngine::reduced), against the brute-force masked oracle
// (Posterior::map_point_masked), and against inline dense solves over the
// live rows of K. Drop/restore is a pure projection, so a full cycle must
// return the assimilator BITWISE to its pristine state. On top sit the
// service-level pieces: validity-bitmap submits, sensor control ops,
// degraded provenance in snapshots/journal/metrics, and the deterministic
// fault injector.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <span>
#include <vector>

#include "core/digital_twin.hpp"
#include "obs/metrics.hpp"
#include "service/engine_cache.hpp"
#include "service/fault_injector.hpp"
#include "service/warning_service.hpp"

namespace tsunami {
namespace {

class DegradedTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto twin = std::make_shared<DigitalTwin>(TwinConfig::tiny());
    RuptureConfig rc;
    Asperity a;
    a.x0 = 0.3 * twin->mesh().length_x();
    a.y0 = 0.5 * twin->mesh().length_y();
    a.rx = 16e3;
    a.ry = 24e3;
    a.peak_uplift = 2.0;
    rc.asperities.push_back(a);
    rc.hypocenter_x = a.x0;
    rc.hypocenter_y = a.y0;
    Rng rng(7);
    event_ = new SyntheticEvent(twin->synthesize(RuptureScenario(rc), rng));
    twin->run_offline(event_->noise);
    twin_ = new std::shared_ptr<const DigitalTwin>(std::move(twin));
    cache_ = new EngineCache({.track_map = true});
    cached_ = new std::shared_ptr<const CachedEngine>(cache_->adopt(*twin_));
  }
  static void TearDownTestSuite() {
    delete cached_;
    delete cache_;
    delete twin_;
    delete event_;
    cached_ = nullptr;
    cache_ = nullptr;
    twin_ = nullptr;
    event_ = nullptr;
  }

  static const DigitalTwin& twin() { return **twin_; }
  static const StreamingEngine& engine() { return (*cached_)->engine(); }
  static std::size_t nt() { return engine().num_ticks(); }
  static std::size_t nd() { return engine().block_size(); }

  static std::span<const double> block(std::size_t tick) {
    return std::span<const double>(event_->d_obs).subspan(tick * nd(), nd());
  }

  /// Brute-force oracle: the exact posterior MAP given the first `ticks`
  /// blocks with the rows in `dead` (global row indices < ticks * nd)
  /// projected out — a dense solve over the live rows of K, lifted through
  /// the prefix adjoint. Independent of every line of the streaming
  /// degraded machinery.
  static std::vector<double> oracle_map(std::size_t ticks,
                                        const std::set<std::size_t>& dead) {
    const std::size_t p = ticks * nd();
    std::vector<std::size_t> live;
    for (std::size_t i = 0; i < p; ++i)
      if (!dead.count(i)) live.push_back(i);
    const Matrix& k = twin().hessian().matrix();
    Matrix ks(live.size(), live.size());
    for (std::size_t r = 0; r < live.size(); ++r)
      for (std::size_t c = 0; c < live.size(); ++c)
        ks(r, c) = k(live[r], live[c]);
    DenseCholesky chol(ks);
    std::vector<double> rhs(live.size());
    for (std::size_t r = 0; r < live.size(); ++r)
      rhs[r] = event_->d_obs[live[r]];
    chol.solve_in_place(rhs);
    std::vector<double> y(p, 0.0);
    for (std::size_t r = 0; r < live.size(); ++r) y[live[r]] = rhs[r];
    std::vector<double> m(twin().parameter_dim());
    twin().posterior().apply_gstar_prefix(y, ticks, std::span<double>(m));
    return m;
  }

  /// Bitwise state fingerprint of everything a drop/restore cycle must
  /// preserve: the forecast buffers and the MAP estimate.
  static bool states_bitwise_equal(StreamingAssimilator& a,
                                   StreamingAssimilator& b) {
    const Forecast fa = a.forecast(), fb = b.forecast();
    const std::vector<double> ma = a.map_estimate(), mb = b.map_estimate();
    return fa.degraded == fb.degraded &&
           fa.dropped_channels == fb.dropped_channels &&
           std::memcmp(fa.mean.data(), fb.mean.data(),
                       fa.mean.size() * sizeof(double)) == 0 &&
           std::memcmp(fa.stddev.data(), fb.stddev.data(),
                       fa.stddev.size() * sizeof(double)) == 0 &&
           std::memcmp(ma.data(), mb.data(), ma.size() * sizeof(double)) == 0;
  }

  static SyntheticEvent* event_;
  static std::shared_ptr<const DigitalTwin>* twin_;
  static EngineCache* cache_;
  static std::shared_ptr<const CachedEngine>* cached_;
};

SyntheticEvent* DegradedTest::event_ = nullptr;
std::shared_ptr<const DigitalTwin>* DegradedTest::twin_ = nullptr;
EngineCache* DegradedTest::cache_ = nullptr;
std::shared_ptr<const CachedEngine>* DegradedTest::cached_ = nullptr;

// ---------------------------------------------------------------------------
// Tentpole acceptance: mid-stream drop + continued pushes == from-scratch
// assimilation over the reduced network, to <= 1e-10.
// ---------------------------------------------------------------------------

TEST_F(DegradedTest, DropMidStreamMatchesReducedEngineFromScratch) {
  const std::size_t drop_at = nt() / 2;
  const std::size_t sensor = 1;

  StreamingAssimilator assim = engine().start();
  for (std::size_t t = 0; t < drop_at; ++t) assim.push(t, block(t));
  assim.drop_sensor(sensor);
  for (std::size_t t = drop_at; t < nt(); ++t) assim.push(t, block(t));

  SensorMask mask(nd());
  mask.drop(sensor);
  const StreamingEngine reduced = engine().reduced(mask);
  StreamingAssimilator oracle = reduced.start();
  for (std::size_t t = 0; t < nt(); ++t) oracle.push(t, block(t));

  EXPECT_LE(DigitalTwin::relative_error(assim.map_estimate(),
                                        oracle.map_estimate()),
            1e-10);
  const Forecast fc = assim.forecast(), fo = oracle.forecast();
  EXPECT_LE(DigitalTwin::relative_error(fc.mean, fo.mean), 1e-10);
  EXPECT_LE(DigitalTwin::relative_error(fc.stddev, fo.stddev), 1e-10);
  EXPECT_TRUE(fc.degraded);
  EXPECT_EQ(fc.dropped_channels, 1u);
}

// Mid-stream (incomplete prefix) agreement too, at every tick after the
// drop — the projection must be exact when the reduced oracle has seen the
// same prefix.
TEST_F(DegradedTest, DropAgreesWithReducedEngineAtEveryTick) {
  const std::size_t drop_at = 2;
  const std::size_t sensor = 0;
  SensorMask mask(nd());
  mask.drop(sensor);
  const StreamingEngine reduced = engine().reduced(mask);

  StreamingAssimilator assim = engine().start();
  StreamingAssimilator oracle = reduced.start();
  for (std::size_t t = 0; t < nt(); ++t) {
    if (t == drop_at) assim.drop_sensor(sensor);
    assim.push(t, block(t));
    oracle.push(t, block(t));
    if (t < drop_at) continue;
    EXPECT_LE(DigitalTwin::relative_error(assim.map_estimate(),
                                          oracle.map_estimate()),
              1e-10)
        << "tick " << t;
    EXPECT_LE(DigitalTwin::relative_error(assim.forecast().mean,
                                          oracle.forecast().mean),
              1e-10)
        << "tick " << t;
  }
}

TEST_F(DegradedTest, DropAfterFullStreamMatchesMaskedPosteriorOracle) {
  StreamingAssimilator assim = engine().start();
  for (std::size_t t = 0; t < nt(); ++t) assim.push(t, block(t));
  assim.drop_sensor(2 % nd());

  SensorMask mask(nd());
  mask.drop(2 % nd());
  const std::vector<double> m_ref =
      twin().posterior().map_point_masked(event_->d_obs, mask);
  EXPECT_LE(DigitalTwin::relative_error(assim.map_estimate(), m_ref), 1e-10);
}

TEST_F(DegradedTest, ReducedEngineFullStreamMatchesMaskedPosteriorOracle) {
  SensorMask mask(nd());
  mask.drop(0);
  const StreamingEngine reduced = engine().reduced(mask);
  StreamingAssimilator assim = reduced.start();
  for (std::size_t t = 0; t < nt(); ++t) assim.push(t, block(t));

  const std::vector<double> m_ref =
      twin().posterior().map_point_masked(event_->d_obs, mask);
  EXPECT_LE(DigitalTwin::relative_error(assim.map_estimate(), m_ref), 1e-10);
}

// ---------------------------------------------------------------------------
// Drop/restore reversibility: the projection never mutates the underlying
// stream state, so a full cycle is bitwise identity.
// ---------------------------------------------------------------------------

TEST_F(DegradedTest, DropRestoreCycleIsBitwiseIdentity) {
  const std::size_t ticks = nt() / 2;
  StreamingAssimilator pristine = engine().start();
  StreamingAssimilator cycled = engine().start();
  for (std::size_t t = 0; t < ticks; ++t) {
    pristine.push(t, block(t));
    cycled.push(t, block(t));
  }
  cycled.drop_sensor(1);
  EXPECT_TRUE(cycled.degraded());
  cycled.restore_sensor(1);
  EXPECT_FALSE(cycled.degraded());
  EXPECT_TRUE(states_bitwise_equal(pristine, cycled));
}

TEST_F(DegradedTest, RepeatedDropRestoreCyclesStayBitwiseAndExact) {
  const std::size_t ticks = nt() / 2;
  StreamingAssimilator pristine = engine().start();
  StreamingAssimilator cycled = engine().start();
  for (std::size_t t = 0; t < ticks; ++t) {
    pristine.push(t, block(t));
    cycled.push(t, block(t));
  }
  for (int cycle = 0; cycle < 3; ++cycle) {
    cycled.drop_sensor(0);
    cycled.drop_sensor(2 % nd());  // overlapping multi-sensor outage
    EXPECT_EQ(cycled.dropped_channels(), nd() > 2 ? 2u : 1u);
    cycled.restore_sensor(2 % nd());
    cycled.restore_sensor(0);
    EXPECT_TRUE(states_bitwise_equal(pristine, cycled))
        << "cycle " << cycle;
  }
}

// Dropping a channel the stream has never observed must be exact (and
// cheap): before any push the projection is empty, and the posterior equals
// the reduced-network prior.
TEST_F(DegradedTest, DropBeforeFirstPushMatchesReducedEngine) {
  StreamingAssimilator assim = engine().start();
  assim.drop_sensor(1);
  EXPECT_TRUE(assim.degraded());
  for (std::size_t t = 0; t < nt(); ++t) assim.push(t, block(t));

  SensorMask mask(nd());
  mask.drop(1);
  const StreamingEngine reduced = engine().reduced(mask);
  StreamingAssimilator oracle = reduced.start();
  for (std::size_t t = 0; t < nt(); ++t) oracle.push(t, block(t));
  EXPECT_LE(DigitalTwin::relative_error(assim.map_estimate(),
                                        oracle.map_estimate()),
            1e-10);
}

// ---------------------------------------------------------------------------
// Per-tick validity bitmaps (partial blocks / whole-block packet loss).
// ---------------------------------------------------------------------------

TEST_F(DegradedTest, InvalidChannelsOfOneTickMatchBruteForceOracle) {
  const std::size_t bad_tick = 1;
  std::vector<std::uint8_t> valid(nd(), 1);
  valid[0] = 0;  // channel 0 of tick 1 lost on the wire

  StreamingAssimilator assim = engine().start();
  const std::size_t ticks = std::min<std::size_t>(nt(), 5);
  for (std::size_t t = 0; t < ticks; ++t) {
    if (t == bad_tick)
      assim.push(t, block(t), valid);
    else
      assim.push(t, block(t));
  }
  EXPECT_TRUE(assim.degraded());
  EXPECT_EQ(assim.dropped_channels(), 0u);  // no standing mask, one dead row

  const std::set<std::size_t> dead = {bad_tick * nd() + 0};
  EXPECT_LE(DigitalTwin::relative_error(assim.map_estimate(),
                                        oracle_map(ticks, dead)),
            1e-10);
}

TEST_F(DegradedTest, WholeBlockLossMatchesBruteForceOracle) {
  const std::size_t lost_tick = 2;
  const std::vector<std::uint8_t> all_lost(nd(), 0);

  StreamingAssimilator assim = engine().start();
  const std::size_t ticks = std::min<std::size_t>(nt(), 6);
  std::set<std::size_t> dead;
  for (std::size_t t = 0; t < ticks; ++t) {
    if (t == lost_tick) {
      assim.push(t, block(t), all_lost);
      for (std::size_t c = 0; c < nd(); ++c) dead.insert(t * nd() + c);
    } else {
      assim.push(t, block(t));
    }
  }
  EXPECT_LE(DigitalTwin::relative_error(assim.map_estimate(),
                                        oracle_map(ticks, dead)),
            1e-10);
}

// Ticks pushed while a sensor is masked are permanently lost; data pushed
// before the drop returns on restore. The oracle sees exactly the interim
// rows dead.
TEST_F(DegradedTest, RestoreAfterMaskedInterimMatchesBruteForceOracle) {
  const std::size_t sensor = 1;
  const std::size_t drop_at = 2, restore_at = 4;
  const std::size_t ticks = std::min<std::size_t>(nt(), 6);
  ASSERT_LT(restore_at, ticks);

  StreamingAssimilator assim = engine().start();
  std::set<std::size_t> dead;
  for (std::size_t t = 0; t < ticks; ++t) {
    if (t == drop_at) assim.drop_sensor(sensor);
    if (t == restore_at) assim.restore_sensor(sensor);
    assim.push(t, block(t));
    if (t >= drop_at && t < restore_at) dead.insert(t * nd() + sensor);
  }
  EXPECT_TRUE(assim.degraded());          // permanent dead rows remain
  EXPECT_EQ(assim.dropped_channels(), 0u);  // but no standing mask
  EXPECT_LE(DigitalTwin::relative_error(assim.map_estimate(),
                                        oracle_map(ticks, dead)),
            1e-10);
}

// Projecting data out can only lose information: the posterior predictive
// stddev must inflate (componentwise) relative to the healthy stream.
TEST_F(DegradedTest, DropInflatesForecastStddev) {
  const std::size_t ticks = nt() / 2;
  StreamingAssimilator healthy = engine().start();
  StreamingAssimilator degraded = engine().start();
  for (std::size_t t = 0; t < ticks; ++t) {
    healthy.push(t, block(t));
    degraded.push(t, block(t));
  }
  degraded.drop_sensor(0);
  const Forecast fh = healthy.forecast(), fd = degraded.forecast();
  for (std::size_t i = 0; i < fh.stddev.size(); ++i)
    EXPECT_GE(fd.stddev[i], fh.stddev[i] - 1e-12) << "qoi " << i;
}

TEST_F(DegradedTest, DropSensorValidation) {
  StreamingAssimilator assim = engine().start();
  EXPECT_THROW(assim.drop_sensor(nd()), std::out_of_range);
  EXPECT_THROW(assim.restore_sensor(nd()), std::out_of_range);
  // Dropping a channel the engine itself already excludes is a caller bug.
  SensorMask mask(nd());
  mask.drop(0);
  const StreamingEngine reduced = engine().reduced(mask);
  StreamingAssimilator on_reduced = reduced.start();
  EXPECT_THROW(on_reduced.drop_sensor(0), std::invalid_argument);
  // Redundant ops are no-ops, not errors (replayed control packets).
  assim.drop_sensor(1);
  assim.drop_sensor(1);
  EXPECT_EQ(assim.dropped_channels(), 1u);
  assim.restore_sensor(1);
  assim.restore_sensor(1);
  EXPECT_FALSE(assim.degraded());
}

TEST_F(DegradedTest, PushValidatesBitmapSize) {
  StreamingAssimilator assim = engine().start();
  const std::vector<std::uint8_t> wrong(nd() + 1, 1);
  EXPECT_THROW(assim.push(0, block(0), wrong), std::invalid_argument);
}

// push_many advances each degraded event's projection with the same
// operations as a serial push. Event 0 drops a
// channel before its first push; event 1 drops one at nt/3 and restores it
// at 2nt/3 (the rows pushed while masked stay dead); event 2 stays healthy
// beside them.
TEST_F(DegradedTest, PushManyOverDegradedEventsMatchesSerialBitwise) {
  constexpr std::size_t kEvents = 3;
  const std::size_t drop_at = nt() / 3, restore_at = 2 * nt() / 3;
  // Distinct data per event, so a block fed to the wrong event shows.
  std::vector<std::vector<double>> obs(kEvents, event_->d_obs);
  for (std::size_t k = 0; k < kEvents; ++k)
    for (double& v : obs[k]) v *= 1.0 + 0.25 * static_cast<double>(k);
  const auto data = [&](std::size_t k, std::size_t t) {
    return std::span<const double>(obs[k]).subspan(t * nd(), nd());
  };

  std::vector<StreamingAssimilator> fused, serial;
  fused.reserve(kEvents);
  serial.reserve(kEvents);
  for (std::size_t k = 0; k < kEvents; ++k) {
    fused.push_back(engine().start());
    serial.push_back(engine().start());
  }
  const auto set_sensor = [&](std::size_t k, std::size_t s, bool live) {
    for (StreamingAssimilator* a : {&fused[k], &serial[k]}) {
      if (live)
        a->restore_sensor(s);
      else
        a->drop_sensor(s);
    }
  };

  set_sensor(0, 2, false);
  for (std::size_t t = 0; t < nt(); ++t) {
    if (t == drop_at) set_sensor(1, 1, false);
    if (t == restore_at) set_sensor(1, 1, true);
    StreamingAssimilator* events[kEvents];
    std::span<const double> blocks[kEvents];
    for (std::size_t k = 0; k < kEvents; ++k) {
      events[k] = &fused[k];
      blocks[k] = data(k, t);
      serial[k].push(t, data(k, t));
    }
    StreamingAssimilator::push_many(events, t, blocks);
    for (std::size_t k = 0; k < kEvents; ++k)
      ASSERT_TRUE(states_bitwise_equal(fused[k], serial[k]))
          << "event " << k << " tick " << t;
  }
  EXPECT_EQ(fused[0].dropped_channels(), 1u);
  EXPECT_TRUE(fused[1].degraded());  // permanent dead rows remain
  EXPECT_EQ(fused[1].dropped_channels(), 0u);
  EXPECT_FALSE(fused[2].degraded());
}

// ---------------------------------------------------------------------------
// Service layer: control ops, provenance, corrupt rejection, metrics.
// ---------------------------------------------------------------------------

TEST_F(DegradedTest, ServiceDropSensorMatchesDirectAssimilator) {
  const std::size_t drop_at = nt() / 2;
  const std::size_t sensor = 1;

  WarningService service({.num_workers = 2});
  const EventId id = service.open_event(*cached_);
  for (std::size_t t = 0; t < drop_at; ++t)
    service.submit(id, t, block(t));
  service.drain();  // make the drop boundary deterministic
  service.drop_sensor(id, sensor);

  // The control op republishes immediately, before any further data.
  EventSnapshot mid = service.latest_forecast(id);
  EXPECT_TRUE(mid.degraded);
  EXPECT_EQ(mid.dropped_channels, 1u);

  for (std::size_t t = drop_at; t < nt(); ++t) service.submit(id, t, block(t));
  const EventSnapshot fin = service.close_event(id);

  StreamingAssimilator direct = engine().start();
  for (std::size_t t = 0; t < drop_at; ++t) direct.push(t, block(t));
  direct.drop_sensor(sensor);
  for (std::size_t t = drop_at; t < nt(); ++t) direct.push(t, block(t));
  const Forecast fd = direct.forecast();

  ASSERT_EQ(fin.forecast.mean.size(), fd.mean.size());
  for (std::size_t i = 0; i < fd.mean.size(); ++i) {
    EXPECT_EQ(fin.forecast.mean[i], fd.mean[i]) << i;  // bit-identical
    EXPECT_EQ(fin.forecast.stddev[i], fd.stddev[i]) << i;
  }
  EXPECT_TRUE(fin.degraded);

  // Journal carries the control-plane record.
  bool saw_drop = false;
  for (const JournalRecord& r : service.journal().snapshot())
    if (r.event == id && r.kind == JournalKind::kSensorDrop &&
        r.tick == sensor)
      saw_drop = true;
  EXPECT_TRUE(saw_drop);
}

TEST_F(DegradedTest, ServiceValidityBitmapMatchesDirectAssimilator) {
  std::vector<std::uint8_t> valid(nd(), 1);
  valid[0] = 0;

  WarningService service({.num_workers = 2});
  const EventId id = service.open_event(*cached_);
  for (std::size_t t = 0; t < nt(); ++t) {
    if (t == 1)
      service.submit(id, t, block(t), valid);
    else
      service.submit(id, t, block(t));
  }
  const EventSnapshot fin = service.close_event(id);

  StreamingAssimilator direct = engine().start();
  for (std::size_t t = 0; t < nt(); ++t) {
    if (t == 1)
      direct.push(t, block(t), valid);
    else
      direct.push(t, block(t));
  }
  const Forecast fd = direct.forecast();
  for (std::size_t i = 0; i < fd.mean.size(); ++i)
    EXPECT_EQ(fin.forecast.mean[i], fd.mean[i]) << i;
  EXPECT_TRUE(fin.degraded);
}

TEST_F(DegradedTest, ServiceDegradedMetricsGauge) {
  WarningService service({.num_workers = 1});
  const EventId healthy = service.open_event(*cached_);
  const EventId degraded = service.open_event(*cached_);
  service.drop_sensor(degraded, 0);

  obs::MetricsSnapshot snap;
  service.collect_metrics(snap);
  double degraded_sessions = -1.0, dropped = -1.0;
  for (const obs::MetricSample& s : snap.samples) {
    if (s.name == "tsunami_service_degraded_sessions")
      degraded_sessions = s.value;
    if (s.name == "tsunami_service_dropped_channels" &&
        s.labels == obs::Labels{{"event", std::to_string(degraded)}})
      dropped = s.value;
  }
  EXPECT_EQ(degraded_sessions, 1.0);
  EXPECT_EQ(dropped, 1.0);
  (void)service.close_event(healthy);
  (void)service.close_event(degraded);
}

TEST_F(DegradedTest, ServiceRejectsCorruptBlocksCleanly) {
  WarningService service({.num_workers = 1});
  const EventId id = service.open_event(*cached_);
  const std::vector<double> oversized(nd() + 3, 0.0);
  const std::vector<std::uint8_t> bad_bitmap(nd() + 1, 1);

  EXPECT_THROW(service.submit(id, 0, oversized), std::invalid_argument);
  EXPECT_THROW(service.submit(id, nt() + 7, block(0)), std::invalid_argument);
  EXPECT_THROW(service.submit(id, 0, block(0), bad_bitmap),
               std::invalid_argument);
  EXPECT_EQ(service.telemetry().ticks_corrupt, 3u);

  std::size_t rejects = 0;
  for (const JournalRecord& r : service.journal().snapshot())
    if (r.event == id && r.kind == JournalKind::kReject) ++rejects;
  EXPECT_EQ(rejects, 3u);

  // The session is not poisoned: the genuine stream still assimilates.
  for (std::size_t t = 0; t < nt(); ++t) service.submit(id, t, block(t));
  const EventSnapshot fin = service.close_event(id);
  EXPECT_TRUE(fin.complete);
  EXPECT_FALSE(fin.degraded);
}

// ---------------------------------------------------------------------------
// Fault injector: pure-hash determinism and env parsing.
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, DecisionsAreDeterministicAndSeedDependent) {
  FaultPlan plan;
  plan.seed = 1234;
  plan.packet_loss = 0.3;
  plan.corrupt = 0.2;
  const FaultInjector a(plan), b(plan);
  plan.seed = 4321;
  const FaultInjector c(plan);

  std::size_t losses = 0, differs = 0;
  for (std::uint64_t ev = 1; ev <= 5; ++ev) {
    for (std::size_t t = 0; t < 200; ++t) {
      EXPECT_EQ(a.lose_block(ev, t), b.lose_block(ev, t));
      EXPECT_EQ(a.corrupt_block(ev, t), b.corrupt_block(ev, t));
      losses += a.lose_block(ev, t) ? 1u : 0u;
      differs += a.lose_block(ev, t) != c.lose_block(ev, t) ? 1u : 0u;
    }
  }
  // 1000 draws at p = 0.3: the rate must be in the right ballpark, and a
  // different seed must actually change the pattern.
  EXPECT_GT(losses, 200u);
  EXPECT_LT(losses, 400u);
  EXPECT_GT(differs, 0u);
}

TEST(FaultInjectorTest, ProbabilityEndpoints) {
  FaultPlan never;
  const FaultInjector off(never);
  FaultPlan always;
  always.packet_loss = 1.0;
  always.corrupt = 1.0;
  const FaultInjector on(always);
  for (std::size_t t = 0; t < 50; ++t) {
    EXPECT_FALSE(off.lose_block(9, t));
    EXPECT_FALSE(off.corrupt_block(9, t));
    EXPECT_TRUE(on.lose_block(9, t));
    EXPECT_TRUE(on.corrupt_block(9, t));
  }
  EXPECT_FALSE(never.any());
  EXPECT_TRUE(always.any());
}

TEST(FaultInjectorTest, SensorOpsFireAtScriptedTicks) {
  FaultPlan plan;
  plan.sensor_faults.push_back({2, 5, 9});
  plan.sensor_faults.push_back({0, 5, SensorFault::kNever});
  const FaultInjector inj(plan);

  const auto at5 = inj.sensor_ops_at(5);
  ASSERT_EQ(at5.size(), 2u);
  EXPECT_EQ(at5[0], (std::pair<std::size_t, bool>{2, false}));
  EXPECT_EQ(at5[1], (std::pair<std::size_t, bool>{0, false}));
  const auto at9 = inj.sensor_ops_at(9);
  ASSERT_EQ(at9.size(), 1u);
  EXPECT_EQ(at9[0], (std::pair<std::size_t, bool>{2, true}));
  EXPECT_TRUE(inj.sensor_ops_at(6).empty());
}

TEST(FaultInjectorTest, FromEnvParsesAndValidates) {
  ::setenv("TSUNAMI_FAULT_SEED", "99", 1);
  ::setenv("TSUNAMI_FAULT_PACKET_LOSS", "0.25", 1);
  ::setenv("TSUNAMI_FAULT_CORRUPT", "0.5", 1);
  ::setenv("TSUNAMI_FAULT_DROP_SENSOR", "1@3,0@4-8", 1);
  const FaultPlan plan = FaultPlan::from_env();
  EXPECT_EQ(plan.seed, 99u);
  EXPECT_DOUBLE_EQ(plan.packet_loss, 0.25);
  EXPECT_DOUBLE_EQ(plan.corrupt, 0.5);
  ASSERT_EQ(plan.sensor_faults.size(), 2u);
  EXPECT_EQ(plan.sensor_faults[0].sensor, 1u);
  EXPECT_EQ(plan.sensor_faults[0].drop_tick, 3u);
  EXPECT_EQ(plan.sensor_faults[0].restore_tick, SensorFault::kNever);
  EXPECT_EQ(plan.sensor_faults[1].sensor, 0u);
  EXPECT_EQ(plan.sensor_faults[1].drop_tick, 4u);
  EXPECT_EQ(plan.sensor_faults[1].restore_tick, 8u);

  ::setenv("TSUNAMI_FAULT_PACKET_LOSS", "1.5", 1);
  EXPECT_THROW(FaultPlan::from_env(), std::invalid_argument);
  ::setenv("TSUNAMI_FAULT_PACKET_LOSS", "0.25", 1);
  // A restore tick at or before its drop tick is refused, equality too.
  for (const char* bad : {"5@8-3", "5@8-8"}) {
    ::setenv("TSUNAMI_FAULT_DROP_SENSOR", bad, 1);
    try {
      (void)FaultPlan::from_env();
      ADD_FAILURE() << bad << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "restore tick must follow drop tick"),
                std::string::npos)
          << bad << ": " << e.what();
    }
  }
  ::setenv("TSUNAMI_FAULT_DROP_SENSOR", "nonsense", 1);
  EXPECT_THROW(FaultPlan::from_env(), std::invalid_argument);
  // Indices are decimal digits only: no sign (-1 must not wrap to
  // 2^64 - 1), no whitespace, nothing past 2^64 - 1.
  for (const char* bad :
       {"-1@6", "+1@6", " 1@6", "1@-2", "1@ 6", "18446744073709551616@6",
        "1@6-18446744073709551616"}) {
    ::setenv("TSUNAMI_FAULT_DROP_SENSOR", bad, 1);
    EXPECT_THROW(FaultPlan::from_env(), std::invalid_argument) << bad;
  }
  const std::size_t max_index = std::numeric_limits<std::size_t>::max();
  ::setenv("TSUNAMI_FAULT_DROP_SENSOR",
           (std::to_string(max_index) + "@6").c_str(), 1);
  EXPECT_EQ(FaultPlan::from_env().sensor_faults.at(0).sensor, max_index);

  ::unsetenv("TSUNAMI_FAULT_SEED");
  ::unsetenv("TSUNAMI_FAULT_PACKET_LOSS");
  ::unsetenv("TSUNAMI_FAULT_CORRUPT");
  ::unsetenv("TSUNAMI_FAULT_DROP_SENSOR");
  const FaultPlan defaults = FaultPlan::from_env();
  EXPECT_FALSE(defaults.any());
}

}  // namespace
}  // namespace tsunami
