// End-to-end benchmark of the tsunami digital twin, driven through its
// public API only.
//
//   twinbench prepare --seed N --dir D [--trace 0|1]
//       The HPC side, the offline build: synthesize the calibrating event
//       once per directory (kept in D/calib.bin), run phases 1-3 and write
//       the bundle to D/bundle.bin; boot the serving engine from it and
//       check it bitwise against the cold twin's; write the build timings
//       and that check to D/build.txt.
//   twinbench run --workload W --seed N --seconds S --trace 0|1 --dir D
//       One online workload (live_feed | map_replay) served from
//       D/bundle.bin. Prints a human-readable report, then one JSON line:
//       {"correct", "attempted", "failed", "inputs_hash", "e2e", "layers"}.
//
// Every workload uses the same network: TwinConfig::tiny(), 8 sensors x 48
// ticks, 3 gauges, observation_dt = 2.0 (10,608 parameters). Inputs are
// generated from the seed; every closed event's final forecast is checked
// bitwise against a single-threaded StreamingAssimilator replay of the same
// blocks and control ops. Timings are medians (and p99s) over every sample
// of the measured phase; the host's steal and speed are printed beside them.

#include <sys/stat.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdarg>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/digital_twin.hpp"
#include "harness.hpp"
#include "obs/bridge.hpp"
#include "obs/http_exporter.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "service/engine_cache.hpp"
#include "service/warning_service.hpp"
#include "util/artifact_bundle.hpp"

namespace {

using namespace tsunami;
namespace tb = twinbench;
using tb::ScopedSpan;

std::int64_t now_ns() { return obs::monotonic_ns(); }
double us(std::int64_t ns) { return static_cast<double>(ns) * 1e-3; }

// ---------------------------------------------------------------------------
// The network and its calibrating event
// ---------------------------------------------------------------------------

TwinConfig bench_config() {
  TwinConfig config = TwinConfig::tiny();
  config.num_sensors = 8;
  config.num_gauges = 3;
  config.num_intervals = 48;
  config.observation_dt = 2.0;
  // The outer adjoint loop runs in parallel, as examples/offline_build does.
  config.phase1_parallel = true;
  return config;
}

SyntheticEvent calibrating_event(const DigitalTwin& twin) {
  RuptureConfig rc;
  Asperity a;
  a.x0 = 0.3 * twin.mesh().length_x();
  a.y0 = 0.5 * twin.mesh().length_y();
  a.rx = 16e3;
  a.ry = 24e3;
  a.peak_uplift = 2.2;
  rc.asperities.push_back(a);
  rc.hypocenter_x = a.x0;
  rc.hypocenter_y = a.y0;
  Rng rng(9);
  return twin.synthesize(RuptureScenario(rc), rng);
}

// ---------------------------------------------------------------------------
// Offline build (phases 1-3 + bundle), timed per layer
// ---------------------------------------------------------------------------

struct BuildTimes {
  double build_s = 0, phase1_s = 0, phase2_s = 0, phase3_s = 0;
  double write_ms = 0, form_k_s = 0, factorize_ms = 0;
  double bundle_bytes = 0, adjoint_solves = 0, hessian_columns = 0;
  double gdof_per_s = 0;
  double steal_pct = 0;  ///< host steal over the build
  /// Warm-boot oracle: events replayed on the engine booted from the
  /// bundle, and how many of them differ from the cold twin's engine.
  double warm_events = 0, warm_mismatches = 0;
};

BuildTimes build_bundle(DigitalTwin& twin, const NoiseModel& noise,
                        const std::string& path) {
  ScopedSpan span("bench.build");
  BuildTimes b;
  const tb::CpuTimes cpu0 = tb::read_cpu_times();
  const std::int64_t t0 = now_ns();
  {
    ScopedSpan s("wave.run_phase1");
    twin.run_phase1();
  }
  const std::int64_t t1 = now_ns();
  {
    ScopedSpan s("toeplitz.run_phase2");
    twin.run_phase2(noise);
  }
  const std::int64_t t2 = now_ns();
  {
    ScopedSpan s("core.run_phase3");
    twin.run_phase3();
  }
  const std::int64_t t3 = now_ns();
  {
    ScopedSpan s("util.save_offline");
    twin.save_offline(path);
  }
  const std::int64_t t4 = now_ns();
  b.steal_pct = tb::steal_pct(cpu0, tb::read_cpu_times());
  b.build_s = static_cast<double>(t4 - t0) * 1e-9;
  b.phase1_s = static_cast<double>(t1 - t0) * 1e-9;
  b.phase2_s = static_cast<double>(t2 - t1) * 1e-9;
  b.phase3_s = static_cast<double>(t3 - t2) * 1e-9;
  b.write_ms = static_cast<double>(t4 - t3) * 1e-6;
  b.form_k_s = twin.timers().total("form K");
  b.factorize_ms = twin.timers().total("factorize K") * 1e3;
  struct stat st {};
  if (::stat(path.c_str(), &st) == 0)
    b.bundle_bytes = static_cast<double>(st.st_size);
  const TwinConfig& c = twin.config();
  // Computed: one adjoint propagation per sensor and per gauge; each RK4
  // substep touches the whole state four times.
  b.adjoint_solves = static_cast<double>(c.num_sensors + c.num_gauges);
  b.hessian_columns = static_cast<double>(twin.data_dim());
  const double dof_steps = static_cast<double>(twin.model().state_dim()) * 4.0 *
                           static_cast<double>(twin.time_grid().substeps) *
                           static_cast<double>(twin.time_grid().num_intervals) *
                           b.adjoint_solves;
  b.gdof_per_s = dof_steps / b.phase1_s / 1e9;
  return b;
}

std::vector<double*> build_fields(BuildTimes& b) {
  return {&b.build_s,      &b.phase1_s,     &b.phase2_s,       &b.phase3_s,
          &b.write_ms,     &b.form_k_s,     &b.factorize_ms,   &b.bundle_bytes,
          &b.adjoint_solves, &b.hessian_columns, &b.gdof_per_s, &b.steal_pct,
          &b.warm_events,  &b.warm_mismatches};
}

void write_vector(const std::string& path, const std::vector<double>& v) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  const std::uint64_t n = v.size();
  bool ok = std::fwrite(&n, sizeof n, 1, f) == 1 &&
            std::fwrite(v.data(), sizeof(double), v.size(), f) == v.size();
  ok = (std::fclose(f) == 0) && ok;
  if (!ok) throw std::runtime_error("short write to " + path);
}

std::vector<double> read_vector(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw std::runtime_error("cannot read " + path);
  std::uint64_t n = 0;
  std::vector<double> v;
  bool ok = std::fread(&n, sizeof n, 1, f) == 1 && n < (1u << 24);
  if (ok) {
    v.resize(n);
    ok = std::fread(v.data(), sizeof(double), n, f) == n;
  }
  std::fclose(f);
  if (!ok) throw std::runtime_error("corrupt " + path);
  return v;
}

// ---------------------------------------------------------------------------
// Generated inputs
// ---------------------------------------------------------------------------

struct ControlOp {
  std::size_t round = 0;  ///< applied between rounds, before tick `round`
  std::size_t channel = 0;
  bool live = false;      ///< false = drop_sensor, true = restore_sensor
};

struct EventInput {
  std::vector<double> d;  ///< nt * nd, tick-major
};

/// Per-event data: the calibrating event's observations, scaled and with
/// fresh noise.
std::vector<EventInput> make_pool(std::uint64_t seed, std::size_t count,
                                  const std::vector<double>& calib,
                                  std::size_t nd, std::size_t nt) {
  tb::SplitMix rng(seed ^ 0x5bd1e995a5a5a5a5ULL);
  double rms = 0.0;
  for (double v : calib) rms += v * v;
  rms = std::sqrt(rms / static_cast<double>(calib.size()));
  std::vector<EventInput> pool(count);
  for (EventInput& e : pool) {
    const double scale = 0.5 + rng.uniform();
    e.d.resize(nt * nd);
    for (std::size_t i = 0; i < e.d.size(); ++i)
      e.d[i] = scale * calib[i] + 0.05 * rms * rng.normal();
  }
  return pool;
}

std::uint64_t hash_pool(const std::vector<EventInput>& pool, std::uint64_t h) {
  for (const EventInput& e : pool) h = tb::fnv1a_vec(e.d, h);
  return h;
}

// ---------------------------------------------------------------------------
// Oracle: single-threaded StreamingAssimilator replay
// ---------------------------------------------------------------------------

struct Final {
  std::vector<double> mean, stddev, map;
  bool degraded = false;
  std::size_t dropped = 0;
  bool alert = false;
  std::size_t alert_tick = 0;
  std::size_t ticks = 0;
};

struct OracleStats {
  std::vector<double> push_us, forecast_us, degraded_push_us, drop_us,
      restore_us;
  double wall_s = 0.0;
  std::size_t ticks = 0;
  double dead_rows_max = 0.0;
};

/// Alert rule of examples/warning_service: latch once the peak forecast mean has
/// exceeded half the event's eventual peak for two consecutive ticks.
constexpr std::size_t kDebounce = 2;

struct OracleEntry {
  Final final;
  double threshold = 0.0;
};

void apply_alert(const std::vector<double>& peaks, double threshold,
                 Final& f) {
  std::size_t streak = 0;
  for (std::size_t t = 0; t < peaks.size(); ++t) {
    streak = peaks[t] > threshold ? streak + 1 : 0;
    if (streak >= kDebounce) {
      f.alert = true;
      f.alert_tick = t + 1;
      return;
    }
  }
}

/// Serial replay of one event; `ops` (sorted by round) are applied between
/// rounds, before the tick of their round.
OracleEntry replay_serial(const StreamingEngine& engine, const EventInput& in,
                          OracleStats* stats,
                          const std::vector<ControlOp>& ops = {}) {
  const std::size_t nd = engine.block_size(), nt = engine.num_ticks();
  StreamingAssimilator a = engine.start();
  Forecast fc;
  std::vector<double> peaks;
  std::vector<std::uint8_t> perm_dead(nt * nd, 0), masked(nd, 0);
  double dead_max = 0.0;
  auto count_dead = [&](std::size_t ticks) {
    std::size_t n = 0;
    for (std::size_t t = 0; t < ticks; ++t)
      for (std::size_t c = 0; c < nd; ++c)
        n += (perm_dead[t * nd + c] || masked[c]) ? 1 : 0;
    dead_max = std::max(dead_max, static_cast<double>(n));
  };
  auto apply_op = [&](const ControlOp& op) {
    const std::int64_t t0 = now_ns();
    if (op.live) {
      ScopedSpan s("core.restore_sensor");
      a.restore_sensor(op.channel);
    } else {
      ScopedSpan s("core.drop_sensor");
      a.drop_sensor(op.channel);
    }
    const double dt = us(now_ns() - t0);
    if (stats) (op.live ? stats->restore_us : stats->drop_us).push_back(dt);
    masked[op.channel] = op.live ? 0 : 1;
  };
  const std::int64_t w0 = now_ns();
  std::size_t op_i = 0;
  for (std::size_t t = 0; t < nt; ++t) {
    while (op_i < ops.size() && ops[op_i].round == t) apply_op(ops[op_i++]);
    count_dead(t);
    const bool degraded_before = a.degraded();
    const std::int64_t p0 = now_ns();
    {
      ScopedSpan s("core.push");
      a.push(t, std::span<const double>(in.d).subspan(t * nd, nd));
    }
    const std::int64_t p1 = now_ns();
    {
      ScopedSpan s("core.forecast_into");
      a.forecast_into(fc);
    }
    const std::int64_t p2 = now_ns();
    for (std::size_t c = 0; c < nd; ++c)
      if (masked[c]) perm_dead[t * nd + c] = 1;
    count_dead(t + 1);
    if (stats) {
      (degraded_before ? stats->degraded_push_us : stats->push_us)
          .push_back(us(p1 - p0));
      stats->forecast_us.push_back(us(p2 - p1));
    }
    double peak = 0.0;
    for (double v : fc.mean) peak = std::max(peak, v);
    peaks.push_back(peak);
  }
  if (stats) {
    stats->wall_s += static_cast<double>(now_ns() - w0) * 1e-9;
    stats->ticks += nt;
    stats->dead_rows_max = std::max(stats->dead_rows_max, dead_max);
  }
  OracleEntry out;
  out.final.mean = fc.mean;
  out.final.stddev = fc.stddev;
  out.final.degraded = fc.degraded;
  out.final.dropped = fc.dropped_channels;
  out.final.ticks = a.ticks_received();
  if (engine.tracks_map()) out.final.map = a.map_estimate();
  // Half the event's final peak, like examples/warning_service.
  out.threshold = 0.5 * peaks.back();
  apply_alert(peaks, out.threshold, out.final);
  return out;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool matches(const EventSnapshot& s, const Final& f) {
  return s.ticks_assimilated == f.ticks && s.complete &&
         same_bits(s.forecast.mean, f.mean) &&
         same_bits(s.forecast.stddev, f.stddev) &&
         s.forecast.degraded == f.degraded &&
         s.forecast.dropped_channels == f.dropped && s.alert == f.alert &&
         (!f.alert || s.alert_tick == f.alert_tick);
}

// ---------------------------------------------------------------------------
// Serving stack: engine cache + warning service + HTTP exporter
// ---------------------------------------------------------------------------

struct Serving {
  std::unique_ptr<EngineCache> cache;
  std::shared_ptr<const CachedEngine> engine;
  std::unique_ptr<WarningService> service;
  std::unique_ptr<obs::HttpExporter> http;  // routes reference `service`

  /// Tear down in dependency order: the exporter's threads first.
  void reset() {
    http.reset();
    service.reset();
    engine.reset();
    cache.reset();
  }
};

struct SetupTimes {
  double setup_s = 0, boot_s = 0, engine_build_ms = 0;
};

/// Boot from the bundle and start the service and its exporter with the
/// options of examples/warning_service; only deployment settings (journal
/// capacity, exporter address) are chosen here.
Serving start_serving(const std::string& bundle, bool track_map,
                      std::size_t journal_capacity, SetupTimes& t) {
  ScopedSpan span("bench.setup");
  Serving s;
  const std::int64_t t0 = now_ns();
  {
    ScopedSpan sp("service.EngineCache.load");
    s.cache = std::make_unique<EngineCache>(
        StreamingOptions{.track_map = track_map});
    s.engine = s.cache->load(bundle);
  }
  const std::int64_t t1 = now_ns();
  {
    ScopedSpan sp("service.WarningService");
    s.service = std::make_unique<WarningService>(ServiceOptions{
        .num_workers = 4,
        .max_pending_per_event = s.engine->engine().num_ticks(),
        .journal_capacity = journal_capacity});
  }
  {
    ScopedSpan sp("obs.HttpExporter.start");
    s.http = std::make_unique<obs::HttpExporter>(
        obs::HttpExporter::Options{.host = "127.0.0.1", .port = 0});
    WarningService* service = s.service.get();
    const CachedEngine* engine = s.engine.get();
    s.http->route("/metrics", [service, engine](const obs::HttpRequest&) {
      obs::MetricsSnapshot snap;
      service->collect_metrics(snap);
      obs::collect_pool(ThreadPool::global(), snap);
      obs::collect_timers(engine->twin().timers(), snap);
      obs::collect_trace(snap);
      return obs::HttpResponse{200, "text/plain; version=0.0.4; charset=utf-8",
                               obs::prometheus_text(snap)};
    });
    s.http->route("/healthz", [](const obs::HttpRequest&) {
      return obs::HttpResponse{200, "text/plain; charset=utf-8", "ok\n"};
    });
    if (!s.http->start())
      throw std::runtime_error("exporter failed to start: " +
                               s.http->last_error());
  }
  const std::int64_t t2 = now_ns();
  t.setup_s = static_cast<double>(t2 - t0) * 1e-9;
  t.boot_s = static_cast<double>(t1 - t0) * 1e-9;
  t.engine_build_ms = s.engine->engine().precompute_seconds() * 1e3;
  return s;
}

// ---------------------------------------------------------------------------
// Run-wide recording
// ---------------------------------------------------------------------------

/// Operations attempted and failed; used from the driving thread only.
struct Counters {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void ok(std::uint64_t n = 1) { attempted += n; }
  void fail(const std::string& why) {
    ++attempted;
    if (failed++ < 8) std::fprintf(stderr, "twinbench: FAILED %s\n", why.c_str());
  }
};

/// Per-event, per-tick records of the measured phase (event slot k).
struct Recording {
  std::size_t nt = 0;
  std::vector<std::uint64_t> id;        // k -> EventId
  std::vector<std::uint8_t> measured;   // k -> in the measured window
  std::vector<std::int64_t> ttff_start;  // k
  std::vector<std::int64_t> lat_start;   // k*nt+t: when latency starts
  std::vector<std::int64_t> lateness;    // k*nt+t: submit start - due
  // k*nt+t: the part of the lateness that the generator's own earlier
  // calls into the service explain (open loop; see open_loop).
  std::vector<std::int64_t> charged;
  std::vector<std::int64_t> sub_start, sub_end;  // k*nt+t
  // Filled from the journal.
  std::vector<std::int64_t> end, queue_wait, push, publish;
  std::vector<std::int64_t> first_publish;  // k
  std::vector<double> open_us, close_us, drain_us;
  std::vector<double> reads;     // latest_forecast() calls, us
  std::vector<double> think_us;  // closed loops: drain return -> next submit
  std::vector<double> scrape_ms, scrape_bytes;
  std::uint64_t scrape_failed = 0;
  /// The measured phase, in which the load runs.
  std::int64_t t_measure = 0, t_end = 0;
  std::uint64_t reorder_stalls = 0, blocked_ticks = 0;

  void resize(std::size_t events) {
    id.assign(events, 0);
    measured.assign(events, 0);
    ttff_start.assign(events, 0);
    first_publish.assign(events, 0);
    for (auto* v : {&lat_start, &lateness, &charged, &sub_start, &sub_end, &end,
                    &queue_wait, &push, &publish})
      v->assign(events * nt, 0);
  }
  std::size_t events() const { return id.size(); }
  /// Capacity for `events` events, so growth never reallocates mid-run.
  void reserve(std::size_t events) {
    id.reserve(events);
    measured.reserve(events);
    ttff_start.reserve(events);
    first_publish.reserve(events);
    for (auto* v : {&lat_start, &lateness, &charged, &sub_start, &sub_end, &end,
                    &queue_wait, &push, &publish})
      v->reserve(events * nt);
  }
};

/// Read the journal once, after the measured phase: publish stamps and the
/// queue/push/publish budget of every (event, tick).
void collect_journal(const WarningService& service, Recording& rec,
                     Counters& counters) {
  ScopedSpan span("service.journal.snapshot");
  if (service.journal().dropped() != 0)
    counters.fail("journal dropped " +
                  std::to_string(service.journal().dropped()) + " records");
  std::vector<std::int64_t> k_of_id;
  for (std::size_t k = 0; k < rec.events(); ++k) {
    if (rec.id[k] == 0) continue;
    if (rec.id[k] >= k_of_id.size()) k_of_id.resize(rec.id[k] + 1, -1);
    k_of_id[rec.id[k]] = static_cast<std::int64_t>(k);
  }
  for (const JournalRecord& r : service.journal().snapshot()) {
    if (r.event >= k_of_id.size() || k_of_id[r.event] < 0) continue;
    const auto k = static_cast<std::size_t>(k_of_id[r.event]);
    if (r.kind == JournalKind::kReorderStall && rec.measured[k])
      ++rec.reorder_stalls;
    if (r.kind == JournalKind::kBackpressureBlock && rec.measured[k])
      ++rec.blocked_ticks;
    if (r.kind != JournalKind::kPush && r.kind != JournalKind::kFirstTick)
      continue;
    if (r.tick >= rec.nt) continue;
    const std::size_t i = k * rec.nt + r.tick;
    rec.end[i] = r.t_ns;
    rec.queue_wait[i] = r.queue_wait_ns;
    rec.push[i] = r.push_ns;
    rec.publish[i] = r.publish_ns;
    if (r.kind == JournalKind::kFirstTick) rec.first_publish[k] = r.t_ns;
  }
}

// ---------------------------------------------------------------------------
// Shared post-phase probes
// ---------------------------------------------------------------------------

struct ProbeStats {
  std::vector<double> control_us;  // service drop/restore calls
  std::vector<double> drain_us;
  std::vector<double> push_many_us;
  std::vector<double> fs_first_us, fs_last_us;
  std::vector<double> bundle_load_ms;
};

/// Final forecast of an event that was closed before its last tick.
bool same_forecast(const EventSnapshot& s, const Final& f) {
  return s.ticks_assimilated == f.ticks && same_bits(s.forecast.mean, f.mean) &&
         same_bits(s.forecast.stddev, f.stddev) &&
         s.forecast.degraded == f.degraded &&
         s.forecast.dropped_channels == f.dropped;
}

/// Control-plane probe: `events` events each assimilate a seeded 2..8
/// ticks, then take three control ops at a round boundary (drop two
/// channels, restore one), and close. Every op is one timed service call; each
/// event's forecast after the ops is checked bitwise against a serial
/// replay of the same blocks and ops.
void control_probe(Serving& sv, const std::vector<EventInput>& pool,
                   std::size_t events, std::uint64_t seed, ProbeStats& ps,
                   OracleStats& os, Counters& counters) {
  ScopedSpan span("bench.control_probe");
  const StreamingEngine& engine = sv.engine->engine();
  const std::size_t nd = engine.block_size(), nt = engine.num_ticks();
  tb::SplitMix rng(seed ^ 0x6a09e667f3bcc908ULL);
  for (std::size_t e = 0; e < events; ++e) {
    const std::size_t half = std::min<std::size_t>(2 + rng.below(7), nt);
    EventInput in;
    in.d.assign(pool[e % pool.size()].d.begin(),
                pool[e % pool.size()].d.begin() + static_cast<long>(half * nd));
    const std::size_t a = rng.below(nd);
    const std::size_t b = (a + 1 + rng.below(nd - 1)) % nd;
    const std::vector<ControlOp> ops = {{half, a, false}, {half, b, false},
                                        {half, a, true}};
    try {
      // Serial replay of the same ticks and ops (the event closes there).
      StreamingAssimilator oracle = engine.start();
      for (std::size_t t = 0; t < half; ++t)
        oracle.push(t, std::span<const double>(in.d).subspan(t * nd, nd));
      const EventId id = sv.service->open_event(sv.engine);
      for (std::size_t t = 0; t < half; ++t) {
        ScopedSpan s("service.submit", id);
        sv.service->submit(id, t,
                           std::span<const double>(in.d).subspan(t * nd, nd));
      }
      {
        const std::int64_t t0 = now_ns();
        ScopedSpan s("service.drain");
        sv.service->drain();
        ps.drain_us.push_back(us(now_ns() - t0));
      }
      for (const ControlOp& op : ops) {
        const std::int64_t t0 = now_ns();
        if (op.live) {
          ScopedSpan s("service.restore_sensor", id);
          sv.service->restore_sensor(id, op.channel);
        } else {
          ScopedSpan s("service.drop_sensor", id);
          sv.service->drop_sensor(id, op.channel);
        }
        ps.control_us.push_back(us(now_ns() - t0));
        const std::int64_t c0 = now_ns();
        if (op.live) {
          ScopedSpan s("core.restore_sensor");
          oracle.restore_sensor(op.channel);
        } else {
          ScopedSpan s("core.drop_sensor");
          oracle.drop_sensor(op.channel);
        }
        (op.live ? os.restore_us : os.drop_us).push_back(us(now_ns() - c0));
      }
      EventSnapshot fin;
      {
        ScopedSpan s("service.close_event", id);
        fin = sv.service->close_event(id);
      }
      counters.ok(half + ops.size() + 3);
      Final expect;
      const Forecast fo = oracle.forecast();
      expect.mean = fo.mean;
      expect.stddev = fo.stddev;
      expect.degraded = fo.degraded;
      expect.dropped = fo.dropped_channels;
      expect.ticks = half;
      if (!same_forecast(fin, expect))
        counters.fail("control-probe event differs from its serial replay");
      else
        counters.ok();
    } catch (const std::exception& ex) {
      counters.fail(std::string("control probe threw: ") + ex.what());
    }
  }
}

/// The drop-only event: ticks 0..23, one channel dropped, ticks 24..47,
/// through the service. Checked within 1e-10 against a from-scratch
/// reduced-network engine (StreamingEngine::reduced) fed every block.
void drop_only_event(Serving& sv, const EventInput& base, std::size_t channel,
                     OracleStats& os, Counters& counters) {
  ScopedSpan span("bench.drop_only_event");
  const StreamingEngine& engine = sv.engine->engine();
  const std::size_t nd = engine.block_size(), nt = engine.num_ticks();
  try {
    const EventId id = sv.service->open_event(sv.engine);
    for (std::size_t t = 0; t < nt; ++t) {
      if (t == nt / 2) {
        sv.service->drain();
        ScopedSpan s("service.drop_sensor", id);
        sv.service->drop_sensor(id, channel);
      }
      ScopedSpan s("service.submit", id);
      sv.service->submit(id, t, std::span<const double>(base.d).subspan(t * nd, nd));
    }
    EventSnapshot fin;
    {
      ScopedSpan s("service.close_event", id);
      fin = sv.service->close_event(id);
    }
    counters.ok(nt + 3);
    // The same blocks and op, replayed serially: bitwise equal.
    EventInput in;
    in.d = base.d;
    Final expect = replay_serial(engine, in, &os, {{nt / 2, channel, false}}).final;
    expect.alert = false;
    if (!matches(fin, expect))
      counters.fail("drop-only event differs from its serial replay");
    else
      counters.ok();
    SensorMask mask(nd);
    mask.drop(channel);
    const StreamingEngine reduced = [&] {
      ScopedSpan s("core.StreamingEngine.reduced");
      return engine.reduced(mask);
    }();
    StreamingAssimilator r = reduced.start();
    for (std::size_t t = 0; t < nt; ++t)
      r.push(t, std::span<const double>(base.d).subspan(t * nd, nd));
    const Forecast fr = r.forecast();
    const double em = DigitalTwin::relative_error(fin.forecast.mean, fr.mean);
    const double es = DigitalTwin::relative_error(fin.forecast.stddev, fr.stddev);
    if (!(fin.complete && em <= 1e-10 && es <= 1e-10))
      counters.fail("drop-only event vs reduced engine: mean " +
                    std::to_string(em) + ", stddev " + std::to_string(es));
    else
      counters.ok();
  } catch (const std::exception& ex) {
    counters.fail(std::string("drop-only event threw: ") + ex.what());
  }
}

/// K = 4 fused push_many replay on the workload's engine, checked bitwise
/// (forecast, and MAP estimate when tracked) against serial replays.
void push_many_probe(const StreamingEngine& engine,
                     const std::vector<EventInput>& pool, ProbeStats& ps,
                     Counters& counters) {
  ScopedSpan span("bench.push_many_check");
  const std::size_t nd = engine.block_size(), nt = engine.num_ticks();
  constexpr std::size_t K = 4;
  std::vector<EventInput> healthy(K);
  for (std::size_t k = 0; k < K; ++k) healthy[k].d = pool[k % pool.size()].d;
  std::vector<StreamingAssimilator> assims;
  assims.reserve(K);
  for (std::size_t k = 0; k < K; ++k) assims.push_back(engine.start());
  std::vector<StreamingAssimilator*> ptrs;
  for (auto& a : assims) ptrs.push_back(&a);
  std::vector<std::span<const double>> blocks(K);
  for (std::size_t t = 0; t < nt; ++t) {
    for (std::size_t k = 0; k < K; ++k)
      blocks[k] = std::span<const double>(healthy[k].d).subspan(t * nd, nd);
    const std::int64_t t0 = now_ns();
    {
      ScopedSpan s("core.push_many");
      StreamingAssimilator::push_many(ptrs, t, blocks);
    }
    ps.push_many_us.push_back(us(now_ns() - t0));
  }
  for (std::size_t k = 0; k < K; ++k) {
    const OracleEntry o = replay_serial(engine, healthy[k], nullptr);
    const Forecast f = assims[k].forecast();
    bool ok = same_bits(f.mean, o.final.mean) &&
              same_bits(f.stddev, o.final.stddev);
    if (engine.tracks_map())
      ok = ok && same_bits(assims[k].map_estimate(), o.final.map);
    if (!ok)
      counters.fail("push_many event " + std::to_string(k) +
                    " differs from its serial replay");
    else
      counters.ok();
  }
}

void linalg_probe(const StreamingEngine& engine, ProbeStats& ps) {
  ScopedSpan span("bench.forward_solve");
  const DenseCholesky& chol = engine.posterior().hessian().cholesky();
  const std::size_t n = engine.data_dim(), nd = engine.block_size();
  std::vector<double> b(n);
  for (int rep = 0; rep < 200; ++rep) {
    for (std::size_t i = 0; i < n; ++i) b[i] = 1.0 + 1e-3 * static_cast<double>(i % 7);
    std::int64_t t0 = now_ns();
    {
      ScopedSpan s("linalg.forward_solve_range");
      chol.forward_solve_range(b, 0, nd);
    }
    ps.fs_first_us.push_back(us(now_ns() - t0));
    t0 = now_ns();
    {
      ScopedSpan s("linalg.forward_solve_range");
      chol.forward_solve_range(b, n - nd, n);
    }
    ps.fs_last_us.push_back(us(now_ns() - t0));
  }
}

void bundle_load_probe(const std::string& path, ProbeStats& ps) {
  for (int rep = 0; rep < 3; ++rep) {
    const std::int64_t t0 = now_ns();
    ScopedSpan s("util.load_bundle");
    const ArtifactBundle b = load_bundle(path);
    ps.bundle_load_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
  }
}

void scrape_probe(const Serving& sv, int count, Recording& rec,
                  Counters& counters) {
  for (int i = 0; i < count; ++i) {
    const std::int64_t t0 = now_ns();
    tb::ScrapeResult r;
    {
      ScopedSpan s("obs.GET /metrics");
      r = tb::http_get(sv.http->port(), "/metrics");
    }
    rec.scrape_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    if (r.ok && r.body_bytes > 0) {
      rec.scrape_bytes.push_back(static_cast<double>(r.body_bytes));
      counters.ok();
    } else {
      ++rec.scrape_failed;
      counters.fail("scrape of /metrics failed");
    }
  }
}

// ---------------------------------------------------------------------------
// Closed loop: K tick-aligned events per group, one drain() per round
// ---------------------------------------------------------------------------

struct ClosedLoop {
  std::size_t k_events = 4;
  double warmup_s = 0.5;
  double seconds = 10.0;
  std::size_t max_groups = 0;   // the journal holds this many groups
};

/// Journal records one in-order event leaves at most: open, first tick,
/// nt - 1 pushes, an alert latch, close.
std::size_t records_per_event(std::size_t nt) { return nt + 3; }

/// Runs groups until the measured time is spent, or until the journal is
/// full (cfg.max_groups), whichever comes first. Each group: open K events,
/// then per round t: submit tick t for all K, drain(), read every event's
/// latest forecast. Then close all K and check them against the oracle.
void closed_loop(Serving& sv, const std::vector<EventInput>& pool,
                 const std::vector<OracleEntry>& oracle,
                 const ClosedLoop& cfg, std::uint64_t seed, Recording& rec,
                 Counters& counters, std::int64_t t_start) {
  const StreamingEngine& engine = sv.engine->engine();
  const std::size_t nd = engine.block_size(), nt = engine.num_ticks();
  tb::SplitMix pick(seed ^ 0x9e3779b97f4a7c15ULL);
  const std::int64_t t_measure =
      t_start + static_cast<std::int64_t>(cfg.warmup_s * 1e9);
  const std::int64_t t_stop =
      t_measure + static_cast<std::int64_t>(cfg.seconds * 1e9);
  std::vector<std::size_t> slot(cfg.k_events), entry(cfg.k_events);
  std::int64_t last_drain = 0;
  for (std::size_t g = 0; g < cfg.max_groups; ++g) {
    const std::int64_t g_start = now_ns();
    if (g_start >= t_stop) break;
    const bool measured = g_start >= t_measure;
    if (measured && rec.t_measure == 0) rec.t_measure = g_start;
    ScopedSpan gspan("bench.group");
    for (std::size_t k = 0; k < cfg.k_events; ++k) {
      entry[k] = pick.below(pool.size());
      slot[k] = rec.events();
      rec.id.push_back(0);
      rec.measured.push_back(measured ? 1 : 0);
      rec.ttff_start.push_back(0);
      rec.first_publish.push_back(0);
      for (auto* v : {&rec.lat_start, &rec.lateness, &rec.charged, &rec.sub_start,
                      &rec.sub_end, &rec.end, &rec.queue_wait, &rec.push,
                      &rec.publish})
        v->resize(rec.events() * nt, 0);
    }
    try {
      for (std::size_t k = 0; k < cfg.k_events; ++k) {
        const std::int64_t t0 = now_ns();
        EventId id;
        {
          ScopedSpan s("service.open_event");
          id = sv.service->open_event(
              sv.engine, AlertPolicy{.threshold = oracle[entry[k]].threshold,
                                     .debounce_ticks = kDebounce});
        }
        rec.id[slot[k]] = id;
        rec.ttff_start[slot[k]] = t0;
        if (measured) rec.open_us.push_back(us(now_ns() - t0));
      }
      counters.ok(cfg.k_events);
      for (std::size_t t = 0; t < nt; ++t) {
        ScopedSpan rspan("bench.round");
        const std::int64_t round_start = now_ns();
        if (measured && last_drain != 0)
          rec.think_us.push_back(us(round_start - last_drain));
        for (std::size_t k = 0; k < cfg.k_events; ++k) {
          const EventInput& in = pool[entry[k]];
          const EventId id = rec.id[slot[k]];
          const std::size_t i = slot[k] * nt + t;
          const auto block = std::span<const double>(in.d).subspan(t * nd, nd);
          const std::int64_t t0 = now_ns();
          {
            ScopedSpan s("service.submit", id);
            sv.service->submit(id, t, block);
          }
          const std::int64_t t1 = now_ns();
          rec.lat_start[i] = t0;
          rec.sub_start[i] = t0;
          rec.sub_end[i] = t1;
        }
        counters.ok(cfg.k_events);
        {
          const std::int64_t t0 = now_ns();
          {
            ScopedSpan s("service.drain");
            sv.service->drain();
          }
          last_drain = now_ns();
          if (measured) rec.drain_us.push_back(us(last_drain - t0));
          counters.ok();
        }
        for (std::size_t k = 0; k < cfg.k_events; ++k) {
          const EventId id = rec.id[slot[k]];
          const std::int64_t t0 = now_ns();
          EventSnapshot s;
          {
            ScopedSpan sp("service.latest_forecast", id);
            s = sv.service->latest_forecast(id);
          }
          if (measured) rec.reads.push_back(us(now_ns() - t0));
          if (s.ticks_assimilated != t + 1)
            counters.fail("event not caught up after drain()");
          else
            counters.ok();
        }
      }
      for (std::size_t k = 0; k < cfg.k_events; ++k) {
        const EventId id = rec.id[slot[k]];
        const std::int64_t t0 = now_ns();
        EventSnapshot fin;
        {
          ScopedSpan s("service.close_event", id);
          fin = sv.service->close_event(id);
        }
        if (measured) rec.close_us.push_back(us(now_ns() - t0));
        if (!matches(fin, oracle[entry[k]].final))
          counters.fail("event " + std::to_string(id) +
                        " final forecast differs from its serial replay");
        else
          counters.ok(2);
      }
    } catch (const std::exception& e) {
      counters.fail(std::string("closed loop threw: ") + e.what());
      return;
    }
    if (measured) rec.t_end = now_ns();
  }
}

// ---------------------------------------------------------------------------
// Open loop (live_feed): one generator, one dashboard, one scraper
// ---------------------------------------------------------------------------

struct OpenLoop {
  double cadence_s = 1e-3;    // one block per event per cadence
  double open_every_s = 1.5e-3;  // ≈ 32 live events, ≈ 32k ticks/s
  double swap_p = 0.05;       // adjacent blocks sent in swapped order
  double warmup_s = 0.5;
  double seconds = 10.0;
  double read_every_s = 2e-4;
  double scrape_every_s = 1.0;
};

struct Action {
  std::int64_t due;  // ns from schedule origin
  std::uint32_t k;
  std::uint16_t tick;  // block tick (submit) or 0
  std::uint8_t type;   // 0 open, 1 submit, 2 close
};

struct Schedule {
  std::vector<Action> actions;
  std::vector<std::size_t> entry;      // k -> pool entry
  std::vector<std::int64_t> open_due;
  std::int64_t measure_from = 0;
  std::size_t swaps = 0;  // swapped block pairs (one reorder stall each)
  std::uint64_t hash = 0;
};

Schedule make_schedule(const OpenLoop& cfg, std::uint64_t seed,
                       std::size_t pool_size, std::size_t nt) {
  Schedule s;
  tb::SplitMix rng(seed ^ 0x2545f4914f6cdd1dULL);
  const auto ns = [](double sec) { return static_cast<std::int64_t>(sec * 1e9); };
  const std::int64_t cad = ns(cfg.cadence_s), every = ns(cfg.open_every_s);
  const std::int64_t horizon = ns(cfg.warmup_s + cfg.seconds);
  s.measure_from = ns(cfg.warmup_s);
  const std::size_t events = static_cast<std::size_t>(horizon / every);
  std::vector<std::size_t> order(nt);
  for (std::size_t k = 0; k < events; ++k) {
    // Seeded phase: each event starts somewhere inside its open slot.
    const std::int64_t open = static_cast<std::int64_t>(k) * every +
                              static_cast<std::int64_t>(rng.uniform() * static_cast<double>(every));
    s.entry.push_back(rng.below(pool_size));
    s.open_due.push_back(open);
    for (std::size_t j = 0; j < nt; ++j) order[j] = j;
    for (std::size_t j = 0; j + 1 < nt; ++j)
      if (rng.uniform() < cfg.swap_p) {
        std::swap(order[j], order[j + 1]);
        ++s.swaps;
        ++j;  // a block moves at most one slot
      }
    s.actions.push_back({open, static_cast<std::uint32_t>(k), 0, 0});
    for (std::size_t j = 0; j < nt; ++j) {
      const std::int64_t due = open + static_cast<std::int64_t>(j) * cad;
      s.actions.push_back({due, static_cast<std::uint32_t>(k),
                           static_cast<std::uint16_t>(order[j]), 1});
    }
    s.actions.push_back({open + static_cast<std::int64_t>(nt + 1) * cad,
                         static_cast<std::uint32_t>(k), 0, 2});
  }
  std::stable_sort(s.actions.begin(), s.actions.end(),
                   [](const Action& a, const Action& b) { return a.due < b.due; });
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const Action& a : s.actions) {
    const std::int64_t w[4] = {a.due, a.k, a.tick, a.type};
    h = tb::fnv1a(w, sizeof w, h);
  }
  s.hash = tb::fnv1a_vec(s.entry, h);
  return s;
}

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// `gen_cpus`: where the generator runs once the dashboard and scraper have
/// started (empty: unpinned).
void open_loop(Serving& sv, const std::vector<EventInput>& pool,
               const std::vector<OracleEntry>& oracle, const Schedule& sched,
               const OpenLoop& cfg, const std::vector<int>& gen_cpus,
               Recording& rec, Counters& counters) {
  const StreamingEngine& engine = sv.engine->engine();
  const std::size_t nd = engine.block_size(), nt = engine.num_ticks();
  const std::size_t events = sched.entry.size();
  rec.resize(events);
  std::array<std::atomic<std::uint64_t>, 8> recent{};
  std::atomic<bool> stop_readers{false};
  std::vector<double> reads;
  reads.reserve(static_cast<std::size_t>((cfg.warmup_s + cfg.seconds) / cfg.read_every_s) + 16);
  std::atomic<std::uint64_t> read_failed{0};

  const std::int64_t origin = now_ns() + 20'000'000;  // 20 ms head start
  rec.t_measure = origin + sched.measure_from;
  rec.t_end = origin + static_cast<std::int64_t>((cfg.warmup_s + cfg.seconds) * 1e9);

  // Dashboard: reads the latest forecast of a recently opened event at a
  // fixed rate.
  std::thread dashboard([&] {
    std::int64_t next = origin;
    std::size_t i = 0;
    while (!stop_readers.load(std::memory_order_acquire)) {
      next += static_cast<std::int64_t>(cfg.read_every_s * 1e9);
      std::this_thread::sleep_for(std::chrono::nanoseconds(std::max<std::int64_t>(next - now_ns(), 0)));
      // mo: acquire pairs with the generator's release store of a fresh id.
      const std::uint64_t id = recent[i++ % recent.size()].load(std::memory_order_acquire);
      if (id == 0) continue;
      const std::int64_t t0 = now_ns();
      try {
        ScopedSpan s("service.latest_forecast", id);
        const EventSnapshot snap = sv.service->latest_forecast(id);
        if (snap.id != id) read_failed.fetch_add(1, std::memory_order_relaxed);
      } catch (const std::exception&) {
        read_failed.fetch_add(1, std::memory_order_relaxed);
      }
      if (t0 >= rec.t_measure && t0 < rec.t_end)
        reads.push_back(us(now_ns() - t0));
    }
  });
  // Scraper: GET /metrics at a fixed rate, one connection at a time.
  std::vector<double> scrape_ms, scrape_bytes;
  std::uint64_t scrape_failed = 0;
  std::thread scraper([&] {
    std::int64_t next = origin;
    while (!stop_readers.load(std::memory_order_acquire)) {
      next += static_cast<std::int64_t>(cfg.scrape_every_s * 1e9);
      while (now_ns() < next && !stop_readers.load(std::memory_order_acquire))
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      if (stop_readers.load(std::memory_order_acquire)) break;
      const std::int64_t t0 = now_ns();
      tb::ScrapeResult r;
      {
        ScopedSpan s("obs.GET /metrics");
        r = tb::http_get(sv.http->port(), "/metrics");
      }
      scrape_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
      if (r.ok && r.body_bytes > 0)
        scrape_bytes.push_back(static_cast<double>(r.body_bytes));
      else
        ++scrape_failed;
    }
  });

  // Generator (this thread): spins to each due time, then acts.
  //
  // Its lateness has two parts. One is charged to the service: an ideal
  // generator, stopped only by its own calls into the service, would start
  // action i at v_i = max(due_i, v_{i-1} + duration_{i-1}), so a stalled
  // submit still delays every later block. The rest is the generator thread
  // not running (host steal, preemption); it is left out of the latency,
  // which starts at t0_i - (v_i - due_i): the actual call minus the charged
  // part. gen.lateness reports the whole lateness.
  if (!gen_cpus.empty()) tb::pin_thread(gen_cpus);
  std::size_t last_open = 0;
  for (std::size_t a = 0; a < sched.actions.size(); ++a)
    if (sched.actions[a].type == 0) last_open = a;
  std::uint64_t ops = 0;
  std::int64_t ideal_free = 0;  // v_{i-1} + duration_{i-1}
  for (std::size_t a = 0; a < sched.actions.size(); ++a) {
    const Action& act = sched.actions[a];
    const std::int64_t due = origin + act.due;
    while (now_ns() < due) cpu_relax();
    const std::size_t k = act.k;
    const EventInput& in = pool[sched.entry[k]];
    const std::int64_t t0 = now_ns();
    const std::int64_t charged = std::max(due, ideal_free) - due;
    try {
      if (act.type == 0) {
        {
          ScopedSpan s("service.open_event");
          rec.id[k] = sv.service->open_event(
              sv.engine,
              AlertPolicy{.threshold = oracle[sched.entry[k]].threshold,
                          .debounce_ticks = kDebounce});
        }
        rec.measured[k] = sched.open_due[k] >= sched.measure_from ? 1 : 0;
        if (rec.measured[k]) rec.open_us.push_back(us(now_ns() - t0));
        // mo: release publishes the id to the dashboard's acquire load.
        recent[k % recent.size()].store(rec.id[k], std::memory_order_release);
        if (a == last_open) stop_readers.store(true, std::memory_order_release);
      } else if (act.type == 1) {
        const std::size_t t = act.tick;
        {
          ScopedSpan s("service.submit", rec.id[k]);
          sv.service->submit(rec.id[k], t,
                             std::span<const double>(in.d).subspan(t * nd, nd));
        }
        const std::size_t i = k * nt + t;
        rec.sub_start[i] = t0;
        rec.sub_end[i] = now_ns();
        rec.lateness[i] = t0 - due;
        rec.charged[i] = charged;
        rec.lat_start[i] = t0 - charged;  // per block; per tick below
        // TTFF starts at the open, which is due when the first block is:
        // tick 0's start less its scheduled delay after the open.
        if (t == 0)
          rec.ttff_start[k] = rec.lat_start[i] - (due - (origin + sched.open_due[k]));
      } else {
        EventSnapshot fin;
        {
          ScopedSpan s("service.close_event", rec.id[k]);
          fin = sv.service->close_event(rec.id[k]);
        }
        if (rec.measured[k]) rec.close_us.push_back(us(now_ns() - t0));
        if (!matches(fin, oracle[sched.entry[k]].final))
          counters.fail("event " + std::to_string(rec.id[k]) +
                        " final forecast differs from its serial replay");
        else
          ++ops;
      }
      ++ops;
    } catch (const std::exception& e) {
      counters.fail(std::string("open loop threw: ") + e.what());
    }
    ideal_free = due + charged + (now_ns() - t0);
  }
  stop_readers.store(true, std::memory_order_release);
  dashboard.join();
  scraper.join();
  counters.ok(ops + reads.size());
  if (read_failed.load() != 0)
    counters.fail(std::to_string(read_failed.load()) + " dashboard reads failed");
  for (std::uint64_t i = 0; i < scrape_failed; ++i)
    counters.fail("scrape of /metrics failed");
  counters.ok(scrape_ms.size() - scrape_failed);
  // A tick's latency starts when the last block its forecast needs was
  // sent (less the generator's own stalls, above).
  for (std::size_t k = 0; k < events; ++k) {
    std::int64_t last = 0;
    for (std::size_t t = 0; t < nt; ++t) {
      last = std::max(last, rec.lat_start[k * nt + t]);
      rec.lat_start[k * nt + t] = last;
    }
  }
  rec.reads = std::move(reads);
  rec.scrape_ms = std::move(scrape_ms);
  rec.scrape_bytes = std::move(scrape_bytes);
  rec.scrape_failed = scrape_failed;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Report {
  tb::MetricList e2e, layers;
  std::vector<std::string> lines;
  void line(const char* fmt, ...) __attribute__((format(printf, 2, 3))) {
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    lines.emplace_back(buf);
  }
};

/// A timing over every sample of its phase: the median goes to `p50_list`,
/// the p99 to the per-layer metrics (on a shared host the tail follows the
/// host more than the program).
void timing(Report& r, tb::MetricList& p50_list, const std::string& base,
            const std::vector<double>& v, const char* unit) {
  const double p50 = tb::percentile(v, 50.0), p99 = tb::percentile(v, 99.0);
  p50_list.set(base + "_p50_" + unit, p50, unit);
  r.layers.set(base + "_p99_" + unit, p99, unit);
  r.line("  %-16s p50 %9.2f %s  p99 %9.2f %s  (n = %zu)", base.c_str(), p50, unit,
         p99, unit, v.size());
}

struct Args {
  std::string mode, workload, dir = ".";
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Args parse(int argc, char** argv) {
  Args a;
  if (argc < 2) throw std::invalid_argument("usage: twinbench prepare|run ...");
  a.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--dir") a.dir = v;
    else throw std::invalid_argument("unknown argument " + k);
  }
  return a;
}

// ---------------------------------------------------------------------------
// prepare: the per-run bundle for the online workloads
// ---------------------------------------------------------------------------

int prepare(const Args& args) {
  tb::Tracer::get().enable(args.trace);
  const TwinConfig config = bench_config();
  // The calibrating event is deterministic and untimed: synthesized once per
  // build directory and kept as [sigma, d_obs...].
  const std::string calib_path = args.dir + "/calib.bin";
  std::vector<double> calib;
  NoiseModel noise;
  if (std::FILE* probe = std::fopen(calib_path.c_str(), "rb")) {
    std::fclose(probe);
    calib = read_vector(calib_path);
    noise.sigma = calib.at(0);
    calib.erase(calib.begin());
  } else {
    DigitalTwin maker(config);
    const SyntheticEvent event = calibrating_event(maker);
    calib = event.d_obs;
    noise = event.noise;
    std::vector<double> stored{noise.sigma};
    stored.insert(stored.end(), calib.begin(), calib.end());
    write_vector(calib_path, stored);
  }
  DigitalTwin twin(config);
  BuildTimes b = build_bundle(twin, noise, args.dir + "/bundle.bin");
  // Warm-boot oracle: the engine booted from the bundle with the serving
  // options must reproduce the cold twin's own engine bit for bit.
  {
    ScopedSpan s("bench.warm_boot_check");
    const StreamingEngine cold = twin.make_streaming({.track_map = false});
    EngineCache cache(StreamingOptions{.track_map = false});
    const std::shared_ptr<const CachedEngine> warm = cache.load(args.dir + "/bundle.bin");
    for (const EventInput& in :
         make_pool(args.seed, 8, calib, config.num_sensors, config.num_intervals)) {
      const Final c = replay_serial(cold, in, nullptr).final;
      const Final w = replay_serial(warm->engine(), in, nullptr).final;
      b.warm_events += 1;
      if (!same_bits(c.mean, w.mean) || !same_bits(c.stddev, w.stddev))
        b.warm_mismatches += 1;
    }
  }
  std::FILE* f = std::fopen((args.dir + "/build.txt").c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write build.txt");
  for (double* v : build_fields(b)) std::fprintf(f, "%.17g ", *v);
  std::fprintf(f, "\n");
  if (std::fclose(f) != 0) throw std::runtime_error("short write build.txt");
  std::printf("prepare: bundle built in %.3f s (phase1 %.3f s, phase2 %.3f s, "
              "phase3 %.3f s, write %.2f ms, %.0f bytes, host steal %.1f%%); "
              "warm boot differs from the cold twin on %.0f of %.0f events\n",
              b.build_s, b.phase1_s, b.phase2_s, b.phase3_s, b.write_ms,
              b.bundle_bytes, b.steal_pct, b.warm_mismatches, b.warm_events);
  if (args.trace) tb::Tracer::get().write_chrome_trace(args.dir + "/trace_prepare.json");
  return 0;
}

std::vector<BuildTimes> read_builds(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("missing " + path + " (run prepare first)");
  std::vector<BuildTimes> out;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream row(line);
    BuildTimes b;
    std::size_t seen = 0;
    for (double* v : build_fields(b))
      if (row >> *v) ++seen;
    if (seen != build_fields(b).size()) throw std::runtime_error("corrupt " + path);
    out.push_back(b);
  }
  if (out.empty()) throw std::runtime_error("empty " + path);
  return out;
}

// ---------------------------------------------------------------------------
// run
// ---------------------------------------------------------------------------

struct WorkloadSpec {
  bool open = false;
  bool track_map = false;
  std::size_t k_events = 0;
  std::size_t pool = 64;
};

WorkloadSpec spec_of(const std::string& w) {
  if (w == "live_feed") return {true, false, 0, 256};
  if (w == "map_replay") return {false, true, 4, 64};
  throw std::invalid_argument("unknown workload " + w);
}

int run(const Args& args) {
  const WorkloadSpec spec = spec_of(args.workload);
  tb::Tracer::get().enable(args.trace);
  Counters counters;
  Report rep;
  ProbeStats ps;
  OracleStats os;
  const TwinConfig config = bench_config();
  const std::size_t nt = config.num_intervals, nd = config.num_sensors;
  const std::uint64_t wl_hash = tb::fnv1a(args.workload.data(), args.workload.size());
  const std::uint64_t seed = args.seed * 0x9e3779b97f4a7c15ULL ^ wl_hash;

  // CPU layout: the load generator (last CPU) and the pool's workers get
  // CPUs of their own, so a woken worker never queues behind the spinning
  // generator, and on live_feed the helper threads (exporter, dashboard,
  // scraper) share the CPU before the last, so they never preempt a worker
  // that holds a session lock. On map_replay the helpers idle and share the
  // workers' CPUs. Threads inherit the mask of the thread that creates them.
  // Where the mask cannot be set, the threads run unpinned.
  const std::vector<int> cpus = tb::allowed_cpus();
  std::vector<int> gen_cpus;
  if (cpus.size() >= (spec.open ? 3u : 2u)) {
    const auto last = cpus.end() - 1;
    const auto helpers = spec.open ? last - 1 : cpus.begin();
    const bool pool_pinned = tb::pin_thread({cpus.begin(), spec.open ? helpers : last});
    (void)ThreadPool::global();  // spawns the workers under this mask
    if (pool_pinned && tb::pin_thread({helpers, last})) gen_cpus = {*last};
  }
  // Host speed beside the results: steal does not show a host that runs
  // this VM's vCPUs slower (a busy sibling thread, a lower clock).
  const double probe_ms = tb::speed_probe_ms();

  // The offline build of this checkout (twinbench prepare) and its
  // warm-boot oracle.
  const std::vector<BuildTimes> builds = read_builds(args.dir + "/build.txt");
  for (const BuildTimes& b : builds) {
    counters.ok(static_cast<std::uint64_t>(b.warm_events - b.warm_mismatches));
    if (b.warm_mismatches != 0)
      counters.fail(std::to_string(static_cast<int>(b.warm_mismatches)) +
                    " warm-booted events differ from the cold twin's");
  }
  std::vector<double> calib = read_vector(args.dir + "/calib.bin");
  calib.erase(calib.begin());  // [sigma, d_obs...]
  // Inputs generated from the seed, twice, to prove determinism.
  const std::vector<EventInput> pool = make_pool(seed, spec.pool, calib, nd, nt);
  std::uint64_t inputs_hash = hash_pool(pool, wl_hash);
  bool inputs_ok =
      inputs_hash == hash_pool(make_pool(seed, spec.pool, calib, nd, nt), wl_hash);

  // Set-up repeats (a boot varies by about 15% within a run), with the
  // deployed journal capacity: 20 when the engine is forecast-only, 6 when
  // it also builds the W* slab. The peak resident set is read after them,
  // before the benchmark allocates anything that grows with the run (the
  // load's schedule, the run-length journal, its own records).
  const std::string bundle_path = args.dir + "/bundle.bin";
  std::vector<double> setup_s, boot_s, engine_build_ms;
  Serving sv;
  for (int i = 0; i < (spec.track_map ? 6 : 20); ++i) {
    sv.reset();  // tear the previous stack down first
    SetupTimes st;
    sv = start_serving(bundle_path, spec.track_map, ServiceOptions{}.journal_capacity, st);
    setup_s.push_back(st.setup_s);
    boot_s.push_back(st.boot_s);
    engine_build_ms.push_back(st.engine_build_ms);
  }
  const double rss = tb::peak_rss_mb();
  // The control plane, on the last set-up stack and before the load, so
  // every run times it from the same process state: three thousand service
  // control calls (2 drops : 1 restore per event).
  control_probe(sv, pool, 1000, seed, ps, os, counters);
  // Journal capacity (a deployment setting): every record of the measured
  // load fits, so a drop is a failure. The open loop's schedule fixes its
  // record count; the closed loop runs at most as many groups as fit, so
  // a faster program shortens the run instead of wrapping the ring.
  OpenLoop open_cfg;
  open_cfg.seconds = args.seconds;
  Schedule sched;
  std::size_t journal_cap = 0;
  if (spec.open) {
    sched = make_schedule(open_cfg, seed, spec.pool, nt);
    // Per event its records, plus one reorder stall per swapped pair.
    journal_cap = sched.entry.size() * records_per_event(nt) + sched.swaps + 4096;
  } else {
    // Room for 64k ticks/s, about 2.8 times the seed program's MAP replay.
    journal_cap = static_cast<std::size_t>((args.seconds + 1.0) * 64000.0) *
                  records_per_event(nt) / nt;
  }
  std::vector<OracleEntry> oracle;
  {
    ScopedSpan s("bench.oracle_replay");
    const StreamingEngine& engine = sv.engine->engine();
    for (const EventInput& in : pool) oracle.push_back(replay_serial(engine, in, &os));
  }
  if (spec.open) {
    const Schedule sched2 = make_schedule(open_cfg, seed, pool.size(), nt);
    inputs_ok = inputs_ok && sched.hash == sched2.hash;
    inputs_hash = tb::fnv1a(&sched.hash, sizeof sched.hash, inputs_hash);
  }

  // The measured phase, under a host validity rule: time the hypervisor
  // takes from this VM (steal) stalls the service's hand-offs between
  // threads, so an attempt is valid only when the host stole at most
  // kMaxStealPct of the CPU time in it. Up to kAttempts attempts, each on a
  // fresh serving stack (its journal holds one attempt) with the same
  // inputs; the first valid attempt is reported, else the one with the
  // least steal. The rule reads /proc/stat only, never the measured
  // figures, and every attempt's forecasts are checked.
  constexpr double kMaxStealPct = 2.0;
  constexpr int kAttempts = 6;
  Recording rec;  // the reported attempt
  double steal = 0.0;
  int attempts = 0;
  std::vector<ThreadPool::WorkerStats> ws0, ws1;
  std::int64_t phase_t0 = 0, phase_t1 = 0;
  for (;;) {
    ++attempts;
    sv.reset();
    {
      SetupTimes st;
      sv = start_serving(bundle_path, spec.track_map, journal_cap, st);
    }
    Recording r;
    r.nt = nt;
    const tb::CpuTimes c0 = tb::read_cpu_times();
    std::vector<ThreadPool::WorkerStats> w0 = ThreadPool::global().worker_stats();
    const std::int64_t t0 = now_ns();
    if (spec.open) {
      open_loop(sv, pool, oracle, sched, open_cfg, gen_cpus, r, counters);
    } else {
      ClosedLoop cfg;
      cfg.k_events = spec.k_events;
      cfg.seconds = args.seconds;
      cfg.max_groups = journal_cap / (cfg.k_events * records_per_event(nt));
      r.reserve(cfg.max_groups * cfg.k_events);
      if (!gen_cpus.empty()) tb::pin_thread(gen_cpus);
      closed_loop(sv, pool, oracle, cfg, seed, r, counters, now_ns());
    }
    const std::int64_t t1 = now_ns();
    std::vector<ThreadPool::WorkerStats> w1 = ThreadPool::global().worker_stats();
    const double s = tb::steal_pct(c0, tb::read_cpu_times());
    if (!gen_cpus.empty()) tb::pin_thread(cpus);
    {
      const std::int64_t d0 = now_ns();
      ScopedSpan sp("service.drain");
      sv.service->drain();
      r.drain_us.push_back(us(now_ns() - d0));
    }
    collect_journal(*sv.service, r, counters);
    std::size_t missing = 0;
    for (std::size_t k = 0; k < r.events(); ++k)
      for (std::size_t t = 0; t < nt && r.measured[k] && r.id[k] != 0; ++t)
        missing += r.end[k * nt + t] == 0 ? 1 : 0;
    if (missing != 0)
      counters.fail(std::to_string(missing) + " ticks without a journal publish record");
    rep.line("  attempt %d: host steal %.2f%% of CPU time over the measured phase%s",
             attempts, s, s <= kMaxStealPct ? "" : " (over the validity limit)");
    if (attempts == 1 || s < steal) {
      rec = std::move(r);
      steal = s;
      ws0 = std::move(w0);
      ws1 = std::move(w1);
      phase_t0 = t0;
      phase_t1 = t1;
    }
    if (steal <= kMaxStealPct || attempts == kAttempts) break;
  }
  const StreamingEngine& engine = sv.engine->engine();

  // ---- probes (after the measured phase) ---------------------------------
  drop_only_event(sv, pool[0], seed % nd, os, counters);
  if (!spec.open) scrape_probe(sv, 20, rec, counters);
  push_many_probe(engine, pool, ps, counters);
  linalg_probe(engine, ps);
  bundle_load_probe(bundle_path, ps);

  if (!inputs_ok) counters.fail("the same seed generated different inputs");

  // ---- end-to-end metrics -------------------------------------------------
  // One row per assimilated (event, tick) of the measured phase, with the
  // journal's budget split beside it.
  struct TickRow {
    double lat, late, charged, sub, qwait, push, publish;
  };
  std::vector<TickRow> rows;
  std::vector<double> lat, ttff;
  std::vector<std::int64_t> published;
  for (std::size_t k = 0; k < rec.events(); ++k) {
    if (!rec.measured[k] || rec.id[k] == 0) continue;
    if (rec.first_publish[k] != 0) ttff.push_back(us(rec.first_publish[k] - rec.ttff_start[k]));
    for (std::size_t t = 0; t < nt; ++t) {
      const std::size_t i = k * nt + t;
      if (rec.end[i] == 0) continue;  // counted as a failure above
      const std::int64_t s0 = rec.lat_start[i];
      rows.push_back({us(rec.end[i] - s0), us(rec.lateness[i]), us(rec.charged[i]),
                      us(rec.sub_end[i] - rec.sub_start[i]), us(rec.queue_wait[i]),
                      us(rec.push[i]), us(rec.publish[i])});
      lat.push_back(rows.back().lat);
      published.push_back(rec.end[i]);
    }
  }
  auto column = [&](double TickRow::*field) {
    std::vector<double> v;
    v.reserve(rows.size());
    for (const TickRow& r : rows) v.push_back(r.*field);
    return v;
  };
  rep.line("workload %s  seed %llu  inputs_hash %016llx", args.workload.c_str(),
           static_cast<unsigned long long>(args.seed),
           static_cast<unsigned long long>(inputs_hash));
  rep.line("pool %zu workers, network %zu sensors x %zu ticks, %zu parameters; "
           "threads %s",
           ThreadPool::global().num_threads(), nd, nt, engine.parameter_dim(),
           gen_cpus.empty() ? "unpinned" : "pinned (generator on its own CPU)");
  std::vector<double> build_s;
  for (const BuildTimes& b : builds) build_s.push_back(b.build_s);
  const double setup_med = tb::median(setup_s);

  rep.e2e.set("setup_s", setup_med, "s");
  rep.e2e.set("peak_rss_mb", rss, "MB");
  timing(rep, rep.e2e, "tick_latency", lat, "us");
  timing(rep, rep.e2e, "ttff", ttff, "us");
  timing(rep, rep.layers, "read_latency", rec.reads, "us");
  const double tps = tb::block_rate(published, 2000);
  rep.layers.set("ticks_per_s", tps, "1/s");
  timing(rep, rep.layers, "control_latency", ps.control_us, "us");
  rep.layers.set("build_s", tb::median(build_s), "s");
  rep.layers.set("boot_s", tb::median(boot_s), "s");
  rep.line("  setup_s %.6f (median of %zu)  boot_s %.6f  build_s %.4f  ticks_per_s %.0f "
           "(median over blocks of 2000 published ticks)",
           setup_med, setup_s.size(), tb::median(boot_s), tb::median(build_s), tps);
  rep.line("  peak_rss_mb %.1f: peak resident through the set-ups", rss);

  // ---- per-layer metrics --------------------------------------------------
  tb::MetricList& L = rep.layers;
  auto p = [](const std::vector<double>& v, double q) { return tb::percentile(v, q); };
  const auto sub_v = column(&TickRow::sub), qwait_v = column(&TickRow::qwait),
             push_v = column(&TickRow::push), publish_v = column(&TickRow::publish),
             late_v = column(&TickRow::late), charged_v = column(&TickRow::charged);
  L.set("service.submit_p50_us", p(sub_v, 50), "us");
  L.set("service.submit_p99_us", p(sub_v, 99), "us");
  L.set("service.queue_wait_p50_us", p(qwait_v, 50), "us");
  L.set("service.queue_wait_p99_us", p(qwait_v, 99), "us");
  L.set("service.publish_p50_us", p(publish_v, 50), "us");
  L.set("service.push_p50_us", p(push_v, 50), "us");
  L.set("service.open_p50_us", p(rec.open_us, 50), "us");
  L.set("service.close_p50_us", p(rec.close_us, 50), "us");
  L.set("service.drain_p50_us", p(rec.drain_us.empty() ? ps.drain_us : rec.drain_us, 50), "us");
  L.set("service.reorder_stalls", static_cast<double>(rec.reorder_stalls), "count");
  L.set("service.blocked_ticks", static_cast<double>(rec.blocked_ticks), "count");

  L.set("core.push_p50_us", p(os.push_us, 50), "us");
  L.set("core.push_p99_us", p(os.push_us, 99), "us");
  L.set("core.forecast_into_p50_us", p(os.forecast_us, 50), "us");
  L.set("core.serial_ticks_per_s",
        os.wall_s > 0 ? static_cast<double>(os.ticks) / os.wall_s : 0.0, "1/s");
  L.set("core.push_many_p50_us", p(ps.push_many_us, 50), "us");
  // Computed bytes per healthy push, averaged over the event: the forward
  // substitution reads block rows of L up to the current prefix, and the
  // slab accumulation reads Nd rows of R (and of W* when MAP is tracked).
  const double n_avg = static_cast<double>(nd) * (static_cast<double>(nt) + 1.0) / 2.0;
  const double row_bytes = static_cast<double>(engine.qoi_dim()) +
                           (engine.tracks_map() ? static_cast<double>(engine.parameter_dim()) : 0.0);
  const double push_bytes = 8.0 * static_cast<double>(nd) * (n_avg + row_bytes);
  const double push_gbs = push_bytes / (p(os.push_us, 50) * 1e-6) / 1e9;
  L.set("core.push_bytes", push_bytes, "B_computed");
  L.set("core.push_gbs", push_gbs, "GB/s_computed");
  L.set("core.degraded_push_p50_us", p(os.degraded_push_us, 50), "us");
  L.set("core.dead_rows_max", os.dead_rows_max, "count_computed");
  L.set("core.drop_p50_us", p(os.drop_us, 50), "us");
  L.set("core.restore_p50_us", p(os.restore_us, 50), "us");
  L.set("core.engine_build_ms", tb::median(engine_build_ms), "ms");
  const BuildTimes& bt = builds.back();
  L.set("core.phase3_s", bt.phase3_s, "s");
  L.set("linalg.forward_solve_first_us", p(ps.fs_first_us, 50), "us");
  L.set("linalg.forward_solve_last_us", p(ps.fs_last_us, 50), "us");
  L.set("linalg.factorize_ms", bt.factorize_ms, "ms");
  L.set("toeplitz.phase2_s", bt.phase2_s, "s");
  L.set("toeplitz.form_k_s", bt.form_k_s, "s");
  L.set("toeplitz.hessian_columns", bt.hessian_columns, "count");
  L.set("wave.phase1_s", bt.phase1_s, "s");
  L.set("wave.adjoint_solves", bt.adjoint_solves, "count_computed");
  L.set("wave.gdof_per_s", bt.gdof_per_s, "GDOF/s_computed");
  L.set("util.bundle_write_ms", bt.write_ms, "ms");
  L.set("util.bundle_load_ms", tb::median(ps.bundle_load_ms), "ms");
  L.set("util.bundle_bytes", bt.bundle_bytes, "B");
  {
    double jobs = 0, steals = 0, busy = 0;
    for (std::size_t w = 0; w < ws1.size() && w < ws0.size(); ++w) {
      jobs += static_cast<double>(ws1[w].jobs - ws0[w].jobs);
      steals += static_cast<double>(ws1[w].steals - ws0[w].steals);
      busy += ws1[w].busy_seconds - ws0[w].busy_seconds;
    }
    const double wall = static_cast<double>(phase_t1 - phase_t0) * 1e-9;
    L.set("parallel.jobs", jobs, "count");
    L.set("parallel.steals", steals, "count");
    L.set("parallel.busy_pct",
          100.0 * busy / (wall * static_cast<double>(std::max<std::size_t>(ws1.size(), 1))), "%");
  }
  L.set("obs.scrape_p50_ms", p(rec.scrape_ms, 50), "ms");
  L.set("obs.scrape_bytes", p(rec.scrape_bytes, 50), "B");
  L.set("obs.scrape_failed", static_cast<double>(rec.scrape_failed), "count");

  // Generator validity: lateness, and the backlog of submitted-but-not-
  // published ticks sampled every 100 ms over the measured phase.
  std::vector<double> gen_late = late_v;
  if (!spec.open) gen_late = rec.think_us;  // closed loop: drain -> next submit
  L.set("gen.lateness_p50_us", p(gen_late, 50), "us");
  L.set("gen.lateness_p99_us", p(gen_late, 99), "us");
  {
    std::vector<std::int64_t> subs;
    for (std::size_t k = 0; k < rec.events(); ++k)
      for (std::size_t t = 0; t < nt && rec.id[k] != 0; ++t)
        if (rec.sub_start[k * nt + t] != 0) subs.push_back(rec.sub_start[k * nt + t]);
    std::vector<std::int64_t> pubs;
    for (std::size_t k = 0; k < rec.events(); ++k)
      for (std::size_t t = 0; t < nt && rec.id[k] != 0; ++t)
        if (rec.end[k * nt + t] != 0) pubs.push_back(rec.end[k * nt + t]);
    std::sort(subs.begin(), subs.end());
    std::sort(pubs.begin(), pubs.end());
    std::vector<double> xs, ys;
    std::string series;
    const std::int64_t step = 100'000'000;
    for (std::int64_t w = rec.t_measure; w <= rec.t_end; w += step) {
      const auto ns = std::upper_bound(subs.begin(), subs.end(), w) - subs.begin();
      const auto np = std::upper_bound(pubs.begin(), pubs.end(), w) - pubs.begin();
      xs.push_back(static_cast<double>(w - rec.t_measure) * 1e-9);
      ys.push_back(static_cast<double>(ns - np));
      if (series.size() < 300) series += " " + std::to_string(ns - np);
    }
    double slope = 0.0;
    if (xs.size() >= 2) {
      double mx = 0, my = 0;
      for (std::size_t i = 0; i < xs.size(); ++i) mx += xs[i], my += ys[i];
      mx /= static_cast<double>(xs.size());
      my /= static_cast<double>(xs.size());
      double sxy = 0, sxx = 0;
      for (std::size_t i = 0; i < xs.size(); ++i)
        sxy += (xs[i] - mx) * (ys[i] - my), sxx += (xs[i] - mx) * (xs[i] - mx);
      slope = sxx > 0 ? sxy / sxx : 0.0;
    }
    L.set("gen.backlog_max_ticks", ys.empty() ? 0.0 : *std::max_element(ys.begin(), ys.end()), "count");
    L.set("gen.backlog_slope_ticks_per_s", slope, "1/s");
    rep.line("  backlog (ticks, every 100 ms):%s", series.c_str());
  }

  // Budget: the parts of a tick against its end-to-end latency, as medians
  // over the same rows.
  const double lat50 = p(lat, 50);
  const double late50 = spec.open ? p(charged_v, 50) : 0.0;
  const double parts50 = late50 + p(sub_v, 50) + p(qwait_v, 50) + p(push_v, 50) +
                         p(publish_v, 50);
  rep.line("  budget p50: charged lateness %.2f + submit %.2f + queue %.2f + push %.2f + "
           "publish %.2f = %.2f us vs tick latency %.2f us",
           late50, p(sub_v, 50), p(qwait_v, 50), p(push_v, 50), p(publish_v, 50),
           parts50, lat50);
  L.set("trace.budget_residual_pct", lat50 > 0 ? 100.0 * (lat50 - parts50) / lat50 : 0.0, "%");
  L.set("machine.steal_pct", steal, "%");
  L.set("machine.measure_attempts", attempts, "count");
  L.set("machine.probe_ms", probe_ms, "ms");
  rep.line("  host steal %.2f%% of CPU time over the reported attempt (%d made)", steal,
           attempts);
  rep.line("  host speed probe %.3f ms (a fixed chain of dependent multiply-adds; "
           "lower is a faster host)", probe_ms);

  // Release the serving stack before the bandwidth probe.
  sv.reset();
  if (args.trace) {
    const std::size_t llc = tb::llc_bytes();
    const std::size_t array = std::max<std::size_t>(4 * llc, 64u << 20);
    tb::TriadResult tr;
    {
      ScopedSpan s("machine.stream_triad");
      tr = tb::stream_triad(array, ThreadPool::global().num_threads(), 3);
    }
    L.set("machine.triad_gbs", tr.gbs, "GB/s");
    L.set("machine.triad_array_mib", tr.array_mib, "MiB");
    L.set("machine.llc_mib", static_cast<double>(llc) / (1024.0 * 1024.0), "MiB");
    L.set("core.push_pct_of_triad", 100.0 * push_gbs / tr.gbs, "%_computed");
    rep.line("  triad %.1f GB/s on %zu threads, arrays %.0f MiB each (LLC %.0f MiB)",
             tr.gbs, ThreadPool::global().num_threads(), tr.array_mib,
             static_cast<double>(llc) / (1024.0 * 1024.0));
    L.set("trace.spans", static_cast<double>(tb::Tracer::get().size()), "count");
    // Self time per span name.
    auto self = tb::Tracer::get().self_times();
    std::vector<std::pair<double, std::string>> top;
    for (const auto& [name, v] : self) top.emplace_back(v.first, name);
    std::sort(top.rbegin(), top.rend());
    rep.line("  self time by span (s):");
    for (std::size_t i = 0; i < top.size() && i < 16; ++i)
      rep.line("    %-34s %10.4f  (n = %zu)", top[i].second.c_str(), top[i].first,
               self[top[i].second].second);
    const std::string trace_path = args.dir + "/trace_" + args.workload + ".json";
    if (!tb::Tracer::get().write_chrome_trace(trace_path))
      counters.fail("could not write " + trace_path);
    else
      rep.line("  spans written to %s", trace_path.c_str());
  }

  for (const std::string& l : rep.lines) std::printf("%s\n", l.c_str());
  const std::uint64_t failed = counters.failed;
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"inputs_hash\":\"%016llx\",\"e2e\":%s,\"layers\":%s}\n",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(counters.attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(inputs_hash),
              rep.e2e.json().c_str(), rep.layers.json().c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    if (args.mode == "prepare") return prepare(args);
    if (args.mode == "run") return run(args);
    std::fprintf(stderr, "twinbench: unknown mode %s\n", args.mode.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "twinbench: %s\n", e.what());
    return 2;
  }
}
