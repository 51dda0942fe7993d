// Tests for the multi-event warning service (src/service/): engine-cache
// identity (one engine per fingerprint), bit-for-bit equivalence of a
// concurrent N-event replay against N independent single-threaded
// StreamingAssimilator replays, per-event reordering of out-of-order
// submits, submit validation (unknown/closed events, duplicates, bad
// blocks), backpressure, the debounced alert latch, and telemetry. This
// suite is the one the ThreadSanitizer CI job runs against the service's
// worker pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <latch>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "service/engine_cache.hpp"
#include "service/warning_service.hpp"
#include "util/rng.hpp"

namespace tsunami {
namespace {

/// One tiny twin + offline phases, shared by the suite (the offline build
/// dominates wall time); the cache entry all sessions share.
class ServiceTest : public ::testing::Test {
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
    Rng rng(5);
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

  /// Distinct synthetic event e: the shared noiseless data re-noised from a
  /// per-event stream (what a bank of concurrent real events looks like to
  /// the service — same network, different data).
  static std::vector<double> make_obs(unsigned e) {
    std::vector<double> d = event_->d_true;
    Rng rng(1000 + e);
    for (auto& v : d) v += event_->noise.sigma * rng.normal();
    return d;
  }

  /// Independent single-threaded reference replay over the same engine.
  static StreamingAssimilator replay(const std::vector<double>& d_obs) {
    const StreamingEngine& eng = (*cached_)->engine();
    StreamingAssimilator assim = eng.start();
    for (std::size_t t = 0; t < eng.num_ticks(); ++t)
      assim.push(t, std::span<const double>(d_obs).subspan(
                        t * eng.block_size(), eng.block_size()));
    return assim;
  }

  static std::size_t nt() { return (*cached_)->engine().num_ticks(); }
  static std::size_t nd() { return (*cached_)->engine().block_size(); }
  static std::span<const double> block(const std::vector<double>& d,
                                       std::size_t t) {
    return std::span<const double>(d).subspan(t * nd(), nd());
  }

  static SyntheticEvent* event_;
  static std::shared_ptr<const DigitalTwin>* twin_;
  static EngineCache* cache_;
  static std::shared_ptr<const CachedEngine>* cached_;
};

SyntheticEvent* ServiceTest::event_ = nullptr;
std::shared_ptr<const DigitalTwin>* ServiceTest::twin_ = nullptr;
EngineCache* ServiceTest::cache_ = nullptr;
std::shared_ptr<const CachedEngine>* ServiceTest::cached_ = nullptr;

TEST_F(ServiceTest, CacheReturnsSameEngineForSameFingerprint) {
  // Same twin adopted again -> the exact same CachedEngine instance.
  EXPECT_EQ(cache_->adopt(*twin_).get(), cached_->get());
  EXPECT_EQ(cache_->size(), 1u);

  // A bundle round-trip produces the same fingerprint, hence the same
  // instance — the second load() must not even rebuild the slabs.
  const std::string path = testing::TempDir() + "service_cache.bundle";
  (*twin_)->save_offline(path);
  const auto from_bundle = cache_->load(path);
  EXPECT_EQ(from_bundle.get(), cached_->get());
  EXPECT_EQ(cache_->load(path).get(), cached_->get());
  EXPECT_EQ(cache_->size(), 1u);

  const std::uint64_t fp = (*twin_)->config().fingerprint();
  EXPECT_EQ(cache_->find(fp).get(), cached_->get());
  EXPECT_EQ(cache_->find(fp ^ 1), nullptr);
  std::remove(path.c_str());
}

TEST_F(ServiceTest, RacingLoadsOfANewBundleShareOneEngine) {
  // The race EngineCache::load documents: threads that all miss on one new
  // network may each boot a twin, but exactly one engine is kept and every
  // thread gets it.
  const std::string path = testing::TempDir() + "service_race.bundle";
  (*twin_)->save_offline(path);
  EngineCache cache({.track_map = true});
  constexpr std::size_t kThreads = 4;
  std::vector<std::shared_ptr<const CachedEngine>> got(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kThreads; ++i)
    threads.emplace_back([&, i] {
      start.arrive_and_wait();
      got[i] = cache.load(path);
    });
  for (auto& th : threads) th.join();
  std::remove(path.c_str());
  ASSERT_NE(got[0], nullptr);
  for (std::size_t i = 1; i < kThreads; ++i)
    EXPECT_EQ(got[i].get(), got[0].get()) << "thread " << i;
  EXPECT_EQ(cache.size(), 1u);

  // The warm engine replays the cold twin's bits.
  const std::vector<double> d = make_obs(0);
  const StreamingEngine& eng = got[0]->engine();
  StreamingAssimilator warm = eng.start();
  for (std::size_t t = 0; t < eng.num_ticks(); ++t) warm.push(t, block(d, t));
  const StreamingAssimilator cold = replay(d);
  const Forecast fw = warm.forecast();
  const Forecast fc = cold.forecast();
  EXPECT_EQ(fw.mean, fc.mean);
  EXPECT_EQ(fw.stddev, fc.stddev);
  EXPECT_EQ(warm.map_snapshot(), cold.map_snapshot());
}

TEST_F(ServiceTest, CacheRejectsColdOrNullTwin) {
  EngineCache cache;
  EXPECT_THROW((void)cache.adopt(nullptr), std::invalid_argument);
  EXPECT_THROW(
      (void)cache.adopt(std::make_shared<const DigitalTwin>(TwinConfig::tiny())),
      std::logic_error);
}

// The ISSUE acceptance criterion: >= 64 concurrent events over a >= 4
// worker pool must produce forecasts (and MAP estimates) bit-identical to
// 64 independent single-threaded replays. Submission is interleaved
// round-robin across events from several producer threads to maximize
// queue churn.
TEST_F(ServiceTest, ConcurrentReplayOf64EventsIsBitIdentical) {
  constexpr unsigned kEvents = 64;
  constexpr std::size_t kProducers = 4;

  std::vector<std::vector<double>> obs;
  obs.reserve(kEvents);
  for (unsigned e = 0; e < kEvents; ++e) obs.push_back(make_obs(e));

  WarningService service({.num_workers = 4});
  std::vector<EventId> ids;
  ids.reserve(kEvents);
  for (unsigned e = 0; e < kEvents; ++e)
    ids.push_back(service.open_event(*cached_));

  // kProducers threads, each feeding its share of events tick-by-tick.
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t t = 0; t < nt(); ++t)
        for (unsigned e = static_cast<unsigned>(p); e < kEvents;
             e += kProducers)
          service.submit(ids[e], t, block(obs[e], t));
    });
  }
  for (auto& th : producers) th.join();
  service.drain();

  for (unsigned e = 0; e < kEvents; ++e) {
    const StreamingAssimilator ref = replay(obs[e]);
    const Forecast expect = ref.forecast();
    const EventSnapshot got = service.close_event(ids[e]);
    ASSERT_TRUE(got.complete) << "event " << e;
    EXPECT_EQ(got.ticks_assimilated, nt());
    // Bitwise, not approximate: same engine, same per-event push order.
    EXPECT_EQ(got.forecast.mean, expect.mean) << "event " << e;
    EXPECT_EQ(got.forecast.stddev, expect.stddev) << "event " << e;
    EXPECT_EQ(got.forecast.lower95, expect.lower95) << "event " << e;
    EXPECT_EQ(got.forecast.upper95, expect.upper95) << "event " << e;
  }
  EXPECT_EQ(service.events_in_flight(), 0u);
  EXPECT_EQ(service.telemetry().ticks_assimilated, kEvents * nt());
}

TEST_F(ServiceTest, OutOfOrderSubmitsAreReorderedWithinAnEvent) {
  const std::vector<double> d = make_obs(7);
  // A fixed adversarial permutation (seeded Fisher-Yates shuffle of the
  // whole window — arbitrary-distance reordering, not just adjacent swaps).
  std::vector<std::size_t> order(nt());
  std::iota(order.begin(), order.end(), 0u);
  Rng rng(42);
  for (std::size_t i = order.size(); i-- > 1;)
    std::swap(order[i],
              order[static_cast<std::size_t>(rng.uniform() * (i + 1)) % (i + 1)]);

  WarningService service({.num_workers = 4,
                          .max_pending_per_event = nt()});
  const EventId id = service.open_event(*cached_);
  for (const std::size_t t : order) service.submit(id, t, block(d, t));
  service.drain();

  const StreamingAssimilator ref = replay(d);
  const EventSnapshot got = service.close_event(id);
  EXPECT_TRUE(got.complete);
  EXPECT_EQ(got.forecast.mean, ref.forecast().mean);
  EXPECT_EQ(got.forecast.stddev, ref.forecast().stddev);
}

TEST_F(ServiceTest, SubmitValidation) {
  WarningService service({.num_workers = 4});
  const std::vector<double> d = make_obs(11);

  EXPECT_THROW(service.submit(999, 0, block(d, 0)), std::out_of_range);
  EXPECT_THROW((void)service.latest_forecast(999), std::out_of_range);
  EXPECT_THROW((void)service.close_event(999), std::out_of_range);

  const EventId id = service.open_event(*cached_);
  EXPECT_THROW(service.submit(id, nt(), block(d, 0)), std::invalid_argument);
  EXPECT_THROW(
      service.submit(id, 0, std::span<const double>(d).first(nd() - 1)),
      std::invalid_argument);
  service.submit(id, 3, block(d, 3));
  EXPECT_THROW(service.submit(id, 3, block(d, 3)), std::invalid_argument);
  service.submit(id, 0, block(d, 0));
  service.drain();
  // Tick 0 has been assimilated; resubmitting it is a duplicate too.
  EXPECT_THROW(service.submit(id, 0, block(d, 0)), std::invalid_argument);

  // A closed event is unknown to the service afterwards.
  (void)service.close_event(id);
  EXPECT_THROW(service.submit(id, 1, block(d, 1)), std::out_of_range);
  EXPECT_THROW((void)service.close_event(id), std::out_of_range);
}

TEST_F(ServiceTest, RejectPolicyThrowsServiceOverloadedOnFullQueue) {
  WarningService service({.num_workers = 1,
                          .max_pending_per_event = 2,
                          .backpressure = BackpressurePolicy::kReject});
  const std::vector<double> d = make_obs(13);
  const EventId id = service.open_event(*cached_);

  // Ticks 4 and 3 buffer (tick 0 is missing, nothing is runnable); tick 2
  // overflows the bound. The missing tick 0 itself always bypasses the
  // bound — accepting it is what lets the queue drain.
  service.submit(id, 4, block(d, 4));
  service.submit(id, 3, block(d, 3));
  EXPECT_THROW(service.submit(id, 2, block(d, 2)), ServiceOverloaded);
  EXPECT_GE(service.telemetry().ticks_rejected, 1u);
  service.submit(id, 0, block(d, 0));
  service.drain();
  // 0 assimilated; 3, 4 still wait on the (dropped) tick 1 and 2.
  EXPECT_EQ(service.latest_forecast(id).ticks_assimilated, 1u);
  // Gap fills bypass the bound, but only once the worker has caught up is
  // there queue space for ordinary ticks — drain between the two.
  service.submit(id, 1, block(d, 1));
  service.drain();
  service.submit(id, 2, block(d, 2));
  service.drain();
  EXPECT_EQ(service.latest_forecast(id).ticks_assimilated, 5u);
}

// Regression: a kBlock producer sleeping on a full queue whose tick BECOMES
// next-expected while it waits must wake via the bypass condition — the
// queue is full of future ticks that can only drain through this block, so
// waiting for queue space would deadlock the session permanently.
TEST_F(ServiceTest, BlockedProducerWakesWhenItsTickBecomesNextExpected) {
  WarningService service({.num_workers = 1,
                          .max_pending_per_event = 2,
                          .backpressure = BackpressurePolicy::kBlock});
  const std::vector<double> d = make_obs(19);
  const EventId id = service.open_event(*cached_);

  service.submit(id, 3, block(d, 3));
  service.submit(id, 4, block(d, 4));  // queue full, next_expected = 0
  std::thread producer([&] { service.submit(id, 1, block(d, 1)); });
  // Give the producer time to park on the full queue, then fill the gap:
  // tick 0 bypasses the bound, the worker assimilates it, and next_expected
  // advances to 1 — the parked producer's tick.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  service.submit(id, 0, block(d, 0));
  producer.join();  // deadlocks here without the bypass re-check
  service.drain();
  EXPECT_EQ(service.latest_forecast(id).ticks_assimilated, 2u);
  service.submit(id, 2, block(d, 2));
  service.drain();
  EXPECT_EQ(service.latest_forecast(id).ticks_assimilated, 5u);
}

TEST_F(ServiceTest, DebouncedAlertMatchesSerialRule) {
  const std::vector<double> d = make_obs(17);

  // Reference: the serial warning-center rule over an independent replay.
  const StreamingEngine& eng = (*cached_)->engine();
  StreamingAssimilator ref = eng.start();
  double peak_final = 0.0;
  for (double v : replay(d).forecast().mean)
    peak_final = std::max(peak_final, v);
  const AlertPolicy policy{.threshold = 0.5 * peak_final,
                           .debounce_ticks = 2};
  std::size_t expect_alert_tick = 0, streak = 0;
  for (std::size_t t = 0; t < nt(); ++t) {
    ref.push(t, block(d, t));
    double peak = 0.0;
    for (double v : ref.forecast().mean) peak = std::max(peak, v);
    streak = peak > policy.threshold ? streak + 1 : 0;
    if (expect_alert_tick == 0 && streak >= policy.debounce_ticks)
      expect_alert_tick = t + 1;
  }
  ASSERT_GT(expect_alert_tick, 0u) << "event never crosses half its peak";

  WarningService service({.num_workers = 4});
  const EventId id = service.open_event(*cached_, policy);
  for (std::size_t t = 0; t < nt(); ++t) service.submit(id, t, block(d, t));
  service.drain();
  const EventSnapshot got = service.close_event(id);
  EXPECT_TRUE(got.alert);
  EXPECT_EQ(got.alert_tick, expect_alert_tick);
  // Its one lead-time sample is the data time still ahead at the latch.
  const obs::HistogramSnapshot lead = service.telemetry().alert_lead_time;
  const double dt = (*cached_)->twin().config().observation_dt;
  const double expect_lead =
      static_cast<double>(nt() - expect_alert_tick) * dt;
  EXPECT_EQ(lead.count, 1u);
  EXPECT_EQ(lead.min, expect_lead);
  EXPECT_EQ(lead.max, expect_lead);
}

TEST_F(ServiceTest, SnapshotBeforeDataIsThePrior) {
  WarningService service({.num_workers = 4});
  const EventId id = service.open_event(*cached_);
  const EventSnapshot s = service.latest_forecast(id);
  EXPECT_EQ(s.ticks_assimilated, 0u);
  EXPECT_FALSE(s.complete);
  EXPECT_FALSE(s.alert);
  for (double v : s.forecast.mean) EXPECT_EQ(v, 0.0);
  const auto prior_sd = (*cached_)->engine().stddev_after(0);
  ASSERT_EQ(s.forecast.stddev.size(), prior_sd.size());
  for (std::size_t i = 0; i < prior_sd.size(); ++i)
    EXPECT_EQ(s.forecast.stddev[i], prior_sd[i]);
  (void)service.close_event(id);
}

TEST_F(ServiceTest, TelemetryCountsAndPercentilesAreCoherent) {
  WarningService service({.num_workers = 4});
  constexpr unsigned kEvents = 3;
  std::vector<EventId> ids;
  for (unsigned e = 0; e < kEvents; ++e)
    ids.push_back(service.open_event(*cached_));
  std::vector<std::vector<double>> obs;
  for (unsigned e = 0; e < kEvents; ++e) obs.push_back(make_obs(50 + e));
  for (std::size_t t = 0; t < nt(); ++t)
    for (unsigned e = 0; e < kEvents; ++e)
      service.submit(ids[e], t, block(obs[e], t));
  service.drain();
  (void)service.close_event(ids[0]);

  const TelemetrySnapshot telem = service.telemetry();
  EXPECT_EQ(telem.events_opened, kEvents);
  EXPECT_EQ(telem.events_closed, 1u);
  EXPECT_EQ(telem.events_in_flight, kEvents - 1);
  EXPECT_EQ(telem.ticks_assimilated, kEvents * nt());
  EXPECT_EQ(telem.push_latency.count, kEvents * nt());
  EXPECT_GT(telem.push_latency.p50, 0.0);
  EXPECT_LE(telem.push_latency.p50, telem.push_latency.p95);
  EXPECT_LE(telem.push_latency.p95, telem.push_latency.p99);
  EXPECT_LE(telem.push_latency.p99, telem.push_latency.max);
  EXPECT_GT(telem.ticks_per_second, 0.0);
  EXPECT_FALSE(telem.str().empty());
}

TEST_F(ServiceTest, ServiceOptionValidation) {
  EXPECT_THROW(WarningService({.num_workers = 0}), std::invalid_argument);
  EXPECT_THROW(WarningService({.max_pending_per_event = 0}),
               std::invalid_argument);
}

// ---- concurrent sessions ----------------------------------------------------
//
// Drain jobs run many sessions at once on the shared pool. The contract
// under test: concurrency is INVISIBLE in the results — per-event forecasts
// are bit-identical to independent serial replays no matter how arrivals
// interleave or which jobs drain them.

TEST_F(ServiceTest, BatchedReplayWithPairSwappedArrivalIsBitIdentical) {
  // 8 events on 2 drain jobs, ticks submitted in pairs (t+1 before t) with
  // the per-tick event order rotated: arrivals are adversarially out of
  // order BOTH within an event and across events, so the drain jobs see
  // ragged, shifting sets of runnable sessions.
  constexpr unsigned kEvents = 8;
  std::vector<std::vector<double>> obs;
  for (unsigned e = 0; e < kEvents; ++e) obs.push_back(make_obs(100 + e));

  WarningService service({.num_workers = 2, .max_pending_per_event = 8});
  std::vector<EventId> ids;
  for (unsigned e = 0; e < kEvents; ++e)
    ids.push_back(service.open_event(*cached_));

  std::size_t t = 0;
  for (; t + 1 < nt(); t += 2) {
    for (unsigned k = 0; k < kEvents; ++k) {
      const unsigned e = (k + static_cast<unsigned>(t)) % kEvents;
      service.submit(ids[e], t + 1, block(obs[e], t + 1));
      service.submit(ids[e], t, block(obs[e], t));
    }
  }
  for (; t < nt(); ++t)
    for (unsigned e = 0; e < kEvents; ++e)
      service.submit(ids[e], t, block(obs[e], t));
  service.drain();

  for (unsigned e = 0; e < kEvents; ++e) {
    const Forecast expect = replay(obs[e]).forecast();
    const EventSnapshot got = service.close_event(ids[e]);
    ASSERT_TRUE(got.complete) << "event " << e;
    EXPECT_EQ(got.forecast.mean, expect.mean) << "event " << e;
    EXPECT_EQ(got.forecast.stddev, expect.stddev) << "event " << e;
    EXPECT_EQ(got.forecast.lower95, expect.lower95) << "event " << e;
    EXPECT_EQ(got.forecast.upper95, expect.upper95) << "event " << e;
  }
}

TEST_F(ServiceTest, ClosedLoopPublishesSerialBitsEveryTick) {
  // Closed loop: each round submits one tick per event, drain()s, and checks
  // every event's published forecast bitwise against its serial mirror.
  // Event 0 runs a tick ahead and one block carries a validity bitmap:
  // sessions at different ticks, and a lossy block among healthy ones, must
  // all publish the serial bits.
  constexpr unsigned kEvents = 6;
  std::vector<std::vector<double>> obs;
  for (unsigned e = 0; e < kEvents; ++e) obs.push_back(make_obs(200 + e));
  std::vector<std::uint8_t> lossy(nd(), 1);
  lossy[1] = 0;  // channel 1 of event 2's tick 3 is lost on the wire
  const auto valid = [&](unsigned e, std::size_t t) {
    return e == 2 && t == 3 ? std::span<const std::uint8_t>(lossy)
                            : std::span<const std::uint8_t>{};
  };

  WarningService service({.num_workers = 3});
  std::vector<EventId> ids;
  std::vector<StreamingAssimilator> mirrors;
  mirrors.reserve(kEvents);
  for (unsigned e = 0; e < kEvents; ++e) {
    ids.push_back(service.open_event(*cached_));
    mirrors.push_back((*cached_)->engine().start());
  }
  const auto feed = [&](unsigned e, std::size_t t) {
    service.submit(ids[e], t, block(obs[e], t), valid(e, t));
    mirrors[e].push(t, block(obs[e], t), valid(e, t));
  };
  feed(0, 0);
  for (std::size_t t = 0; t < nt(); ++t) {
    if (t + 1 < nt()) feed(0, t + 1);
    for (unsigned e = 1; e < kEvents; ++e) feed(e, t);
    service.drain();
    for (unsigned e = 0; e < kEvents; ++e) {
      const EventSnapshot got = service.latest_forecast(ids[e]);
      const Forecast expect = mirrors[e].forecast();
      ASSERT_EQ(got.ticks_assimilated, mirrors[e].ticks_received())
          << "event " << e << " round " << t;
      ASSERT_EQ(got.forecast.mean, expect.mean)
          << "event " << e << " round " << t;
      ASSERT_EQ(got.forecast.stddev, expect.stddev)
          << "event " << e << " round " << t;
      ASSERT_EQ(got.degraded, expect.degraded)
          << "event " << e << " round " << t;
    }
  }
  for (unsigned e = 0; e < kEvents; ++e) {
    const EventSnapshot fin = service.close_event(ids[e]);
    EXPECT_TRUE(fin.complete) << "event " << e;
    EXPECT_EQ(fin.degraded, e == 2) << "event " << e;
  }
}

TEST_F(ServiceTest, OpenCloseSubmitFuzzHasNoCrossEventLeakage) {
  // Fixed-seed fuzz of the service lifecycle: events open, close, and push
  // at random while drain jobs run concurrently. Every event carries a
  // serial MIRROR assimilator fed the exact same blocks; at close, the
  // service forecast must equal the mirror bitwise — any cross-event
  // contamination between concurrent drains (shared scratch, a session
  // drained by two jobs) breaks the equality immediately.
  struct Live {
    EventId id;
    std::vector<double> obs;
    std::size_t next;
    StreamingAssimilator mirror;
  };
  Rng rng(99);
  WarningService service({.num_workers = 2});
  // unique_ptr: the assimilator holds an engine reference and is not
  // move-assignable, so Live cannot live in the vector by value.
  std::vector<std::unique_ptr<Live>> live;
  unsigned opened = 0;

  const auto open_one = [&] {
    live.push_back(std::make_unique<Live>(
        Live{service.open_event(*cached_), make_obs(500 + opened), 0,
             (*cached_)->engine().start()}));
    ++opened;
  };
  const auto close_at = [&](std::size_t i) {
    const EventSnapshot s = service.close_event(live[i]->id);
    EXPECT_EQ(s.ticks_assimilated, live[i]->next);
    EXPECT_EQ(s.forecast.mean, live[i]->mirror.forecast().mean);
    EXPECT_EQ(s.forecast.stddev, live[i]->mirror.forecast().stddev);
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
  };

  for (int i = 0; i < 4; ++i) open_one();
  for (int step = 0; step < 600; ++step) {
    const double u = rng.uniform();
    if (u < 0.05 && live.size() < 12) {
      open_one();
    } else if (u < 0.10 && !live.empty()) {
      close_at(static_cast<std::size_t>(rng.uniform() * live.size()) %
               live.size());
    } else if (!live.empty()) {
      Live& l = *live[static_cast<std::size_t>(rng.uniform() * live.size()) %
                      live.size()];
      if (l.next < nt()) {
        service.submit(l.id, l.next, block(l.obs, l.next));
        l.mirror.push(l.next, block(l.obs, l.next));
        ++l.next;
      }
    }
  }
  while (!live.empty()) close_at(live.size() - 1);
  EXPECT_EQ(service.events_in_flight(), 0u);
}

// ---- lifecycle journal ------------------------------------------------------
//
// The journal's contract: every event's records reconstruct its complete
// open -> first_tick -> push* -> alert_latch -> close timeline in timestamp
// order, per-event push ticks are strictly ascending even when arrivals are
// out of order, and each push record's decomposed latency budget
// (queue_wait + push + publish) accounts for its end-to-end total.

namespace journal_util {

/// The records of one event, in the journal's (timestamp-sorted) order.
inline std::vector<JournalRecord> for_event(const EventJournal& journal,
                                            EventId id) {
  std::vector<JournalRecord> out;
  for (const JournalRecord& r : journal.snapshot())
    if (r.event == id) out.push_back(r);
  return out;
}

inline std::size_t count_kind(const std::vector<JournalRecord>& rs,
                              JournalKind k) {
  std::size_t n = 0;
  for (const auto& r : rs) n += r.kind == k ? 1u : 0u;
  return n;
}

}  // namespace journal_util

TEST(EventJournalTest, RingAfterAFilledOneReadsEmptyThenHoldsItsOwnRecords) {
  // A ring's pages start as zero pages, not as whatever the last ring of
  // the same size left behind: a journal built after another was filled
  // past wrap and destroyed reads empty, then holds exactly what is
  // appended to it.
  constexpr std::size_t kCapacity = 256;
  const auto record = [](std::uint64_t i, std::uint64_t salt) {
    JournalRecord r;
    r.event = salt + i;
    r.kind = JournalKind::kPush;
    r.tick = i;
    r.t_ns = static_cast<std::int64_t>(i);
    r.queue_wait_ns = 1;
    r.push_ns = 2;
    r.publish_ns = 3;
    r.total_ns = 6;
    return r;
  };
  {
    EventJournal filled(kCapacity);
    for (std::uint64_t i = 0; i < 3 * kCapacity; ++i)
      filled.append(record(i, 1000));
    ASSERT_EQ(filled.snapshot().size(), kCapacity);
  }
  EventJournal fresh(kCapacity);
  EXPECT_TRUE(fresh.snapshot().empty());
  EXPECT_EQ(fresh.appended(), 0u);
  constexpr std::uint64_t kAppended = 37;
  for (std::uint64_t i = 0; i < kAppended; ++i) fresh.append(record(i, 0));
  const std::vector<JournalRecord> got = fresh.snapshot();
  ASSERT_EQ(got.size(), kAppended);
  for (std::uint64_t i = 0; i < kAppended; ++i) {
    EXPECT_EQ(got[i].event, i);
    EXPECT_EQ(got[i].tick, i);
    EXPECT_EQ(got[i].t_ns, static_cast<std::int64_t>(i));
    EXPECT_EQ(got[i].total_ns, 6);
  }
  EXPECT_EQ(fresh.dropped(), 0u);
}

TEST_F(ServiceTest, JournalReconstructsCompleteLifecycle) {
  const std::vector<double> d = make_obs(23);

  // Alert policy at half the final peak (as in DebouncedAlertMatchesSerial):
  // guarantees a latch partway through the window.
  double peak_final = 0.0;
  for (double v : replay(d).forecast().mean)
    peak_final = std::max(peak_final, v);

  WarningService service({.num_workers = 2});
  const EventId id = service.open_event(
      *cached_, {.threshold = 0.5 * peak_final, .debounce_ticks = 2});
  // One out-of-order pair (1 before 0) to force a reorder-stall record.
  service.submit(id, 1, block(d, 1));
  service.submit(id, 0, block(d, 0));
  for (std::size_t t = 2; t < nt(); ++t) service.submit(id, t, block(d, t));
  service.drain();
  const EventSnapshot final_state = service.close_event(id);
  ASSERT_TRUE(final_state.complete);
  ASSERT_TRUE(final_state.alert);

  const auto rs = journal_util::for_event(service.journal(), id);
  ASSERT_FALSE(rs.empty());
  // Timeline boundaries: opens first, closes last, timestamps sorted.
  EXPECT_EQ(rs.front().kind, JournalKind::kOpen);
  EXPECT_EQ(rs.back().kind, JournalKind::kClose);
  EXPECT_EQ(rs.back().tick, nt());
  for (std::size_t i = 1; i < rs.size(); ++i)
    EXPECT_LE(rs[i - 1].t_ns, rs[i].t_ns);
  // Exactly one first_tick, then nt()-1 plain pushes; ticks 0..nt-1 strictly
  // ascending across the push records.
  EXPECT_EQ(journal_util::count_kind(rs, JournalKind::kFirstTick), 1u);
  EXPECT_EQ(journal_util::count_kind(rs, JournalKind::kPush), nt() - 1);
  EXPECT_GE(journal_util::count_kind(rs, JournalKind::kReorderStall), 1u);
  std::vector<std::uint64_t> push_ticks;
  for (const auto& r : rs)
    if (r.kind == JournalKind::kFirstTick || r.kind == JournalKind::kPush)
      push_ticks.push_back(r.tick);
  ASSERT_EQ(push_ticks.size(), nt());
  for (std::size_t t = 0; t < nt(); ++t) EXPECT_EQ(push_ticks[t], t);
  // The alert latch row matches the snapshot's latch tick.
  const auto latches = journal_util::count_kind(rs, JournalKind::kAlertLatch);
  ASSERT_EQ(latches, 1u);
  for (const auto& r : rs) {
    if (r.kind == JournalKind::kAlertLatch) {
      EXPECT_EQ(r.tick, final_state.alert_tick);
    }
  }

  // Latency budget: every stage non-negative, and queue_wait + push +
  // publish accounts for the end-to-end total. The drain stamps the push
  // start and end on the journal's clock, and the end stamp opens the
  // publish, so the three stages tile [enqueue, publish end] and sum to
  // total_ns exactly, with no unattributed gap between clock reads.
  for (const auto& r : rs) {
    if (r.kind != JournalKind::kFirstTick && r.kind != JournalKind::kPush)
      continue;
    EXPECT_GE(r.queue_wait_ns, 0) << "tick " << r.tick;
    EXPECT_GE(r.push_ns, 0) << "tick " << r.tick;
    EXPECT_GE(r.publish_ns, 0) << "tick " << r.tick;
    EXPECT_GT(r.total_ns, 0) << "tick " << r.tick;
    EXPECT_EQ(r.queue_wait_ns + r.push_ns + r.publish_ns, r.total_ns)
        << "tick " << r.tick;
  }
}

TEST_F(ServiceTest, JournalPushOrderStrictUnderPairSwappedArrival) {
  // Same adversarial arrival pattern as the pair-swapped bit-identity test:
  // the journal must nevertheless record every event's pushes in strict
  // tick order (the reorder buffer holds t+1 until t has been pushed).
  constexpr unsigned kEvents = 8;
  std::vector<std::vector<double>> obs;
  for (unsigned e = 0; e < kEvents; ++e) obs.push_back(make_obs(400 + e));

  WarningService service({.num_workers = 2, .max_pending_per_event = 8});
  std::vector<EventId> ids;
  for (unsigned e = 0; e < kEvents; ++e)
    ids.push_back(service.open_event(*cached_));

  std::size_t t = 0;
  for (; t + 1 < nt(); t += 2) {
    for (unsigned k = 0; k < kEvents; ++k) {
      const unsigned e = (k + static_cast<unsigned>(t)) % kEvents;
      service.submit(ids[e], t + 1, block(obs[e], t + 1));
      service.submit(ids[e], t, block(obs[e], t));
    }
  }
  for (; t < nt(); ++t)
    for (unsigned e = 0; e < kEvents; ++e)
      service.submit(ids[e], t, block(obs[e], t));
  service.drain();

  for (unsigned e = 0; e < kEvents; ++e) {
    const auto rs = journal_util::for_event(service.journal(), ids[e]);
    std::vector<std::uint64_t> push_ticks;
    for (const auto& r : rs)
      if (r.kind == JournalKind::kFirstTick || r.kind == JournalKind::kPush)
        push_ticks.push_back(r.tick);
    ASSERT_EQ(push_ticks.size(), nt()) << "event " << e;
    for (std::size_t i = 0; i < push_ticks.size(); ++i)
      EXPECT_EQ(push_ticks[i], i) << "event " << e;
    (void)service.close_event(ids[e]);
  }
  EXPECT_EQ(service.journal().dropped(), 0u);
}

TEST_F(ServiceTest, JournalRecordsBackpressure) {
  const std::vector<double> d = make_obs(29);
  {
    // kReject: the shed submit leaves a backpressure_reject record.
    WarningService service({.num_workers = 1,
                            .max_pending_per_event = 2,
                            .backpressure = BackpressurePolicy::kReject});
    const EventId id = service.open_event(*cached_);
    service.submit(id, 4, block(d, 4));
    service.submit(id, 3, block(d, 3));
    EXPECT_THROW(service.submit(id, 2, block(d, 2)), ServiceOverloaded);
    const auto rs = journal_util::for_event(service.journal(), id);
    EXPECT_EQ(journal_util::count_kind(rs, JournalKind::kBackpressureReject),
              1u);
    EXPECT_GE(service.telemetry().ticks_rejected, 1u);
  }
  {
    // kBlock: the stalled submit leaves a backpressure_block record whose
    // total_ns is the measured wait, and the blocked counter moves.
    WarningService service({.num_workers = 1,
                            .max_pending_per_event = 2,
                            .backpressure = BackpressurePolicy::kBlock});
    const EventId id = service.open_event(*cached_);
    service.submit(id, 3, block(d, 3));
    service.submit(id, 4, block(d, 4));
    std::thread producer([&] { service.submit(id, 1, block(d, 1)); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    service.submit(id, 0, block(d, 0));
    producer.join();
    service.drain();
    const auto rs = journal_util::for_event(service.journal(), id);
    ASSERT_EQ(journal_util::count_kind(rs, JournalKind::kBackpressureBlock),
              1u);
    for (const auto& r : rs) {
      if (r.kind == JournalKind::kBackpressureBlock) {
        EXPECT_GT(r.total_ns, 0);
      }
    }
    EXPECT_EQ(service.telemetry().ticks_blocked, 1u);
  }
}

TEST_F(ServiceTest, SloInstrumentsExportAndValidate) {
  const std::vector<double> d = make_obs(31);
  double peak_final = 0.0;
  for (double v : replay(d).forecast().mean)
    peak_final = std::max(peak_final, v);

  constexpr unsigned kEvents = 3;
  WarningService service({.num_workers = 2});
  std::vector<EventId> ids;
  std::vector<std::vector<double>> obs;
  for (unsigned e = 0; e < kEvents; ++e) {
    obs.push_back(make_obs(600 + e));
    ids.push_back(service.open_event(
        *cached_, {.threshold = 0.5 * peak_final, .debounce_ticks = 2}));
  }
  for (std::size_t t = 0; t < nt(); ++t)
    for (unsigned e = 0; e < kEvents; ++e)
      service.submit(ids[e], t, block(obs[e], t));
  service.drain();

  // One time-to-first-forecast sample per event; alert-lead samples for the
  // events that latched, each within (0, nt * dt].
  const TelemetrySnapshot telem = service.telemetry();
  EXPECT_EQ(telem.time_to_first_forecast.count, kEvents);
  EXPECT_GT(telem.time_to_first_forecast.percentile(50.0), 0.0);
  EXPECT_GE(telem.alert_lead_time.count, 1u);
  const double dt = (*cached_)->twin().config().observation_dt;
  EXPECT_LE(telem.alert_lead_time.max, static_cast<double>(nt()) * dt);
  EXPECT_GT(telem.alert_lead_time.min, 0.0);
  EXPECT_EQ(telem.ticks_blocked, 0u);

  // The full scrape (telemetry + SLO histograms + staleness gauges +
  // journal counters) renders as valid Prometheus exposition.
  obs::MetricsSnapshot snap;
  service.collect_metrics(snap);
  const std::string text = obs::prometheus_text(snap);
  EXPECT_EQ(obs::validate_prometheus(text), "");
  EXPECT_NE(text.find("tsunami_slo_time_to_first_forecast_seconds"),
            std::string::npos);
  EXPECT_NE(text.find("tsunami_slo_alert_lead_time_seconds"),
            std::string::npos);
  EXPECT_NE(text.find("tsunami_service_ticks_blocked_total"),
            std::string::npos);
  EXPECT_NE(text.find(
                "tsunami_service_forecast_staleness_seconds{event=\"" +
                std::to_string(ids[0]) + "\"}"),
            std::string::npos);
  EXPECT_NE(text.find("tsunami_service_journal_records_total"),
            std::string::npos);

  // Staleness is a freshly-computed gauge: after a publish it is small, and
  // it grows between scrapes.
  for (unsigned e = 0; e < kEvents; ++e)
    (void)service.close_event(ids[e]);
}

// ServiceTelemetry's latency store is a lock-free histogram (wait-free
// bucket fetch_adds). Hammer it from many threads (with a concurrent
// snapshotter): under TSan this is the proof the multi-writer path is
// race-free, and the counts prove no sample is lost or double-counted —
// the histogram covers the LIFETIME, so count equals every push ever made.
TEST(ServiceTelemetryTest, ConcurrentWritersNeverTearTheHistogram) {
  constexpr int kWriters = 8;
  constexpr int kPushes = 10000;
  ServiceTelemetry telem;

  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire))
      (void)telem.snapshot();
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kPushes; ++i)
        telem.on_push(1e-6 * (w + 1));
    });
  }
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();

  const TelemetrySnapshot s = telem.snapshot();
  EXPECT_EQ(s.ticks_assimilated,
            static_cast<std::uint64_t>(kWriters) * kPushes);
  EXPECT_EQ(s.push_latency.count,
            static_cast<std::uint64_t>(kWriters) * kPushes);
  EXPECT_EQ(s.push_histogram.count, s.push_latency.count);
  // Every recorded sample is one of the written values — a torn or lost
  // write would land outside the span (min/max are exact, not quantized).
  EXPECT_GE(s.push_latency.p50, 1e-6 * (1.0 - 1.0 / 32.0));
  EXPECT_LE(s.push_latency.max, kWriters * 1e-6);
  EXPECT_GE(s.push_histogram.min, 1e-6);
}

TEST_F(ServiceTest, CloseDuringBatchedDrainHasNoUseAfterRelease) {
  // A drain job keeps touching its session (pop / push / publish) until
  // its drain releases the scheduled flag. close_event concurrently removes
  // the session from the map and waits on wait_idle. The lifetime contract
  // under test: the drain job holds only a raw pointer, wait_idle blocks
  // until the job's release drops the scheduled flag, the job touches the
  // session no more after that release (close_event's caller may destroy
  // it), and the final snapshot reflects a clean tick prefix. Run under
  // the TSan CI job (and ASan), this is the use-after-release probe; here
  // it also asserts the functional postconditions. Many short rounds
  // maximize interleavings where the close lands exactly while a drain job
  // owns the session.
  constexpr int kRounds = 25;
  constexpr std::size_t kEvents = 6;
  for (int round = 0; round < kRounds; ++round) {
    WarningService service({.num_workers = 2});
    std::vector<EventId> ids;
    std::vector<std::vector<double>> obs;
    for (std::size_t e = 0; e < kEvents; ++e) {
      ids.push_back(service.open_event(*cached_));
      obs.push_back(make_obs(3000u + static_cast<unsigned>(e)));
    }
    // Producer floods all events in tick order, so drain jobs are
    // continually running while the main thread closes the sessions.
    std::thread producer([&] {
      for (std::size_t t = 0; t < nt(); ++t) {
        for (std::size_t e = 0; e < kEvents; ++e) {
          try {
            service.submit(ids[e], t, block(obs[e], t));
          } catch (const std::out_of_range&) {
            // closed and removed mid-feed: expected
          } catch (const std::logic_error&) {
            // removal raced between lookup and session submit: expected
          }
        }
      }
    });
    for (std::size_t e = 0; e < kEvents; ++e) {
      const EventSnapshot s = service.close_event(ids[e]);
      // A clean prefix: whatever was assimilated is a contiguous [0, k)
      // run, and the published forecast is well-formed.
      EXPECT_LE(s.ticks_assimilated, nt());
      EXPECT_EQ(s.forecast.mean.size(), s.forecast.stddev.size());
      for (const double v : s.forecast.mean) EXPECT_TRUE(std::isfinite(v));
      EXPECT_THROW((void)service.latest_forecast(ids[e]), std::out_of_range);
    }
    producer.join();
  }
}

TEST_F(ServiceTest, SetSensorDuringActiveDrainAppliesAtCycleBoundary) {
  // drop/restore ops queued while a worker owns the session must be applied
  // by that owner (its drain never releases past one), and ops on an
  // idle session apply inline. Either way the close-time forecast must be
  // degraded-exact: equal to a serial replay with the drop at SOME tick
  // boundary — and since drops are pure projections of the same stream, any
  // boundary gives the same posterior over the surviving rows pushed
  // healthy. Here the whole stream runs healthy, then the drop lands after
  // drain, so the reference boundary is exact.
  WarningService service({.num_workers = 2});
  const EventId id = service.open_event(*cached_);
  const std::vector<double> obs = make_obs(4000);
  std::thread producer([&] {
    for (std::size_t t = 0; t < nt(); ++t) service.submit(id, t, block(obs, t));
  });
  producer.join();
  service.drain();
  service.drop_sensor(id, 0);
  const EventSnapshot s = service.close_event(id);
  EXPECT_TRUE(s.degraded);
  EXPECT_EQ(s.dropped_channels, 1u);

  StreamingAssimilator mirror = (*cached_)->engine().start();
  for (std::size_t t = 0; t < nt(); ++t) mirror.push(t, block(obs, t));
  mirror.drop_sensor(0);
  EXPECT_EQ(s.forecast.mean, mirror.forecast().mean);
  EXPECT_EQ(s.forecast.stddev, mirror.forecast().stddev);
}

}  // namespace
}  // namespace tsunami
