// Golden replay: pins the bits of the whole pipeline on TwinConfig::tiny().
//
// One cold offline build (phases 1-3) is saved as an artifact bundle; the
// bundle's trailing FNV-1a checksum pins every Phase 1-3 product. A
// WarningService then serves three replays from that bundle, booted through
// EngineCache::load, and FNV-1a hashes every published snapshot:
//   (a) a healthy closed loop, 4 events with an alert threshold, one tick
//       of each event per drain() round;
//   (b) 8 events with pair-swapped arrival (tick t+1 before tick t), one
//       drain() per pair;
//   (c) one event that drops channel 2 at nt/3, restores it at 2nt/3, and
//       submits the block at nt/2 with channel 0 lost on the wire.
// Each replay runs at num_workers 1 and 3, and both must give the pinned
// hash. A fourth column pins the MAP, which the service replays do not
// read: a track_map engine booted from the same bundle takes
//   (d) event 0 pushed serially, then replay (c)'s script straight on an
//       assimilator (its dead rows are projected out before the backward
//       solve),
// with map_estimate() — the causal snapshot — hashed after every push.
//
// Every kernel is compiled for the baseline instruction set, so one row
// holds on every build without a global -march flag (a -march=x86-64-v3
// build lets GCC fuse the FFT's complex products into FMAs and moves the
// bits). A change that is meant to move the bits fails with one message
// that prints every computed hash; pin it by replacing kGolden. The test
// never skips.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/streaming_assimilator.hpp"
#include "service/engine_cache.hpp"
#include "service/warning_service.hpp"
#include "util/artifact_bundle.hpp"
#include "util/rng.hpp"

namespace tsunami {
namespace {

struct GoldenRow {
  std::uint64_t bundle;    ///< trailing checksum of the saved bundle
  std::uint64_t healthy;   ///< replay (a)
  std::uint64_t swapped;   ///< replay (b)
  std::uint64_t degraded;  ///< replay (c)
  std::uint64_t map;       ///< replay (d)
};

constexpr GoldenRow kGolden = {0x894355dd61023c8d, 0x3727f81b5aa6652d,
                                0x036502b36ca5f698, 0xb0d803c54d7c728d,
                                0xccf17c2f4096d325};

/// FNV-1a over every field a dashboard reads from one snapshot.
std::uint64_t hash_snapshot(const EventSnapshot& s, std::uint64_t h) {
  const auto field = [&h](const std::vector<double>& v) {
    h = fnv1a(v.data(), v.size() * sizeof(double), h);
  };
  const auto word = [&h](std::uint64_t v) { h = fnv1a(&v, sizeof(v), h); };
  field(s.forecast.mean);
  field(s.forecast.stddev);
  field(s.forecast.lower95);
  field(s.forecast.upper95);
  word(s.ticks_assimilated);
  word(s.degraded ? 1 : 0);
  word(s.dropped_channels);
  word(s.alert ? 1 : 0);
  word(s.alert_tick);
  return h;
}

class GoldenReplay {
 public:
  GoldenReplay(std::shared_ptr<const CachedEngine> engine,
               const SyntheticEvent& event)
      : engine_(std::move(engine)), event_(event) {}

  std::size_t nt() const { return engine_->engine().num_ticks(); }
  std::size_t nd() const { return engine_->engine().block_size(); }

  /// Event e's data: the noiseless data re-noised from its own stream.
  std::vector<double> obs(unsigned e) const {
    std::vector<double> d = event_.d_true;
    Rng rng(1000 + e);
    for (auto& v : d) v += event_.noise.sigma * rng.normal();
    return d;
  }
  std::span<const double> block(const std::vector<double>& d,
                                std::size_t t) const {
    return std::span<const double>(d).subspan(t * nd(), nd());
  }

  /// (a) Healthy closed loop with alerting.
  std::uint64_t healthy(std::size_t workers) const {
    constexpr unsigned kEvents = 4;
    WarningService service({.num_workers = workers});
    std::vector<EventId> ids;
    std::vector<std::vector<double>> d;
    for (unsigned e = 0; e < kEvents; ++e) {
      ids.push_back(service.open_event(engine_, {.threshold = 0.05}));
      d.push_back(obs(e));
    }
    std::uint64_t h = fnv1a(nullptr, 0);
    for (std::size_t t = 0; t < nt(); ++t) {
      for (unsigned e = 0; e < kEvents; ++e)
        service.submit(ids[e], t, block(d[e], t));
      service.drain();
      for (const EventId id : ids)
        h = hash_snapshot(service.latest_forecast(id), h);
    }
    for (const EventId id : ids) {
      const EventSnapshot fin = service.close_event(id);
      EXPECT_TRUE(fin.alert) << "event " << id << " never alerted";
      h = hash_snapshot(fin, h);
    }
    return h;
  }

  /// (b) Pair-swapped arrival: tick t+1 reaches the service before tick t.
  std::uint64_t swapped(std::size_t workers) const {
    constexpr unsigned kEvents = 8;
    WarningService service({.num_workers = workers});
    std::vector<EventId> ids;
    std::vector<std::vector<double>> d;
    for (unsigned e = 0; e < kEvents; ++e) {
      ids.push_back(service.open_event(engine_));
      d.push_back(obs(e));
    }
    std::uint64_t h = fnv1a(nullptr, 0);
    for (std::size_t t = 0; t < nt(); t += 2) {
      for (unsigned e = 0; e < kEvents; ++e) {
        if (t + 1 < nt()) service.submit(ids[e], t + 1, block(d[e], t + 1));
        service.submit(ids[e], t, block(d[e], t));
      }
      service.drain();
      for (const EventId id : ids)
        h = hash_snapshot(service.latest_forecast(id), h);
    }
    for (const EventId id : ids) h = hash_snapshot(service.close_event(id), h);
    return h;
  }

  /// (c) Sensor drop and restore around a block with a lost channel.
  std::uint64_t degraded(std::size_t workers) const {
    WarningService service({.num_workers = workers});
    const EventId id = service.open_event(engine_);
    const std::vector<double> d = obs(0);
    std::vector<std::uint8_t> lossy(nd(), 1);
    lossy[0] = 0;
    std::uint64_t h = fnv1a(nullptr, 0);
    for (std::size_t t = 0; t < nt(); ++t) {
      if (t == nt() / 3) service.drop_sensor(id, 2);
      if (t == 2 * nt() / 3) service.restore_sensor(id, 2);
      service.submit(id, t, block(d, t),
                     t == nt() / 2 ? std::span<const std::uint8_t>(lossy)
                                   : std::span<const std::uint8_t>{});
      service.drain();
      const EventSnapshot s = service.latest_forecast(id);
      EXPECT_EQ(s.degraded, t >= nt() / 3) << "tick " << t;
      h = hash_snapshot(s, h);
    }
    return hash_snapshot(service.close_event(id), h);
  }

  /// (d) The MAP estimate of a track_map engine, serial pushes only.
  std::uint64_t map(const StreamingEngine& engine) const {
    const std::vector<double> d = obs(0);
    std::vector<std::uint8_t> lossy(nd(), 1);
    lossy[0] = 0;
    std::uint64_t h = fnv1a(nullptr, 0);
    const auto hash_map = [&h](const StreamingAssimilator& a) {
      const std::vector<double>& m = a.map_estimate();
      h = fnv1a(m.data(), m.size() * sizeof(double), h);
    };
    StreamingAssimilator healthy = engine.start();
    for (std::size_t t = 0; t < nt(); ++t) {
      healthy.push(t, block(d, t));
      hash_map(healthy);
    }
    StreamingAssimilator faulted = engine.start();
    for (std::size_t t = 0; t < nt(); ++t) {
      if (t == nt() / 3) faulted.drop_sensor(2);
      if (t == 2 * nt() / 3) faulted.restore_sensor(2);
      faulted.push(t, block(d, t),
                   t == nt() / 2 ? std::span<const std::uint8_t>(lossy)
                                 : std::span<const std::uint8_t>{});
      EXPECT_EQ(faulted.degraded(), t >= nt() / 3) << "tick " << t;
      hash_map(faulted);
    }
    return h;
  }

 private:
  std::shared_ptr<const CachedEngine> engine_;
  const SyntheticEvent& event_;
};

std::uint64_t trailing_checksum(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  f.seekg(-static_cast<std::streamoff>(sizeof(std::uint64_t)), std::ios::end);
  std::uint64_t v = 0;
  f.read(reinterpret_cast<char*>(&v), sizeof(v));
  EXPECT_TRUE(f.good()) << "cannot read the checksum of " << path;
  return v;
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

TEST(Golden, BundleAndReplayBitsMatchPinnedTable) {
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
  const SyntheticEvent event = twin->synthesize(RuptureScenario(rc), rng);
  twin->run_offline(event.noise);
  const std::string path = (std::filesystem::temp_directory_path() /
                            ("golden_" + std::to_string(::getpid()) + ".bundle"))
                               .string();
  twin->save_offline(path);
  twin.reset();

  EngineCache cache({.track_map = false});
  EngineCache map_cache({.track_map = true});
  const GoldenReplay replay(cache.load(path), event);
  const std::shared_ptr<const CachedEngine> map_engine = map_cache.load(path);
  const std::uint64_t bundle = trailing_checksum(path);
  std::filesystem::remove(path);

  const std::size_t kWorkers[] = {1, 3};
  std::uint64_t healthy[2], swapped[2], degraded[2];
  for (int i = 0; i < 2; ++i) {
    healthy[i] = replay.healthy(kWorkers[i]);
    swapped[i] = replay.swapped(kWorkers[i]);
    degraded[i] = replay.degraded(kWorkers[i]);
  }
  const std::uint64_t map = replay.map(map_engine->engine());

  bool match = bundle == kGolden.bundle && map == kGolden.map;
  for (int i = 0; i < 2; ++i)
    match = match && healthy[i] == kGolden.healthy &&
            swapped[i] == kGolden.swapped && degraded[i] == kGolden.degraded;
  if (!match) {
    std::string msg =
        "hashes differ from the pinned row\ncomputed (num_workers 1 / 3):\n";
    msg += "  bundle   " + hex(bundle) + "\n";
    msg += "  healthy  " + hex(healthy[0]) + " / " + hex(healthy[1]) + "\n";
    msg += "  swapped  " + hex(swapped[0]) + " / " + hex(swapped[1]) + "\n";
    msg += "  degraded " + hex(degraded[0]) + " / " + hex(degraded[1]) + "\n";
    msg += "  map      " + hex(map) + "\n";
    msg += "row: {" + hex(bundle) + ", " + hex(healthy[0]) + ", " +
           hex(swapped[0]) + ", " + hex(degraded[0]) + ", " + hex(map) + "};";
    FAIL() << msg;
  }
}

}  // namespace
}  // namespace tsunami
