// Unit tests for the observability subsystem (src/obs/): histogram bucket
// math and error bounds, snapshot merging, multi-writer safety, trace
// recording + Chrome JSON export, and the Prometheus exposition round-trip.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "obs/bridge.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace tsunami::obs {
namespace {

// ---------------------------------------------------------------------------
// Histogram bucket math
// ---------------------------------------------------------------------------

TEST(HistogramBuckets, BoundsBracketTheValue) {
  Rng rng(42);
  for (int i = 0; i < 10000; ++i) {
    // Log-uniform over the covered range.
    const double v = std::exp((rng.uniform() * 2.0 - 1.0) * 25.0);
    const std::size_t idx = Histogram::bucket_index(v);
    EXPECT_LE(Histogram::bucket_lower_bound(idx), v);
    EXPECT_GT(Histogram::bucket_upper_bound(idx), v);
  }
}

TEST(HistogramBuckets, RelativeWidthIsBounded) {
  // The documented error bound: within the exactly-covered exponent range,
  // (hi - lo) / lo <= 1 / kSubBuckets for every bucket.
  const std::size_t first = Histogram::bucket_index(1e-11);
  const std::size_t last = Histogram::bucket_index(1e11);
  for (std::size_t i = first; i <= last; ++i) {
    const double lo = Histogram::bucket_lower_bound(i);
    const double hi = Histogram::bucket_upper_bound(i);
    EXPECT_LE((hi - lo) / lo, 1.0 / Histogram::kSubBuckets + 1e-12)
        << "bucket " << i;
  }
}

TEST(HistogramBuckets, DegenerateValuesAreCountedNotLost) {
  Histogram h;
  h.record(0.0);
  h.record(-3.0);
  h.record(std::numeric_limits<double>::quiet_NaN());
  h.record(1e300);  // above the covered range -> top bucket
  EXPECT_EQ(h.count(), 4u);
  const HistogramSnapshot s = h.snapshot();
  std::uint64_t total = 0;
  for (const auto c : s.counts) total += c;
  EXPECT_EQ(total, 4u);
}

// ---------------------------------------------------------------------------
// Percentile error bound vs exact computation
// ---------------------------------------------------------------------------

void expect_percentiles_within_bound(const std::vector<double>& sample) {
  Histogram h;
  for (const double v : sample) h.record(v);
  const HistogramSnapshot s = h.snapshot();

  std::vector<double> sorted = sample;
  std::sort(sorted.begin(), sorted.end());
  for (const double q : {0.0, 10.0, 50.0, 90.0, 95.0, 99.0, 100.0}) {
    // The histogram estimates the floor-rank order statistic; compare
    // against exactly that sample, not the interpolated percentile.
    const auto k = static_cast<std::size_t>(
        q / 100.0 * static_cast<double>(sorted.size() - 1));
    const double exact = sorted[k];
    const double est = s.percentile(q);
    EXPECT_NEAR(est, exact, exact / Histogram::kSubBuckets + 1e-15)
        << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(s.percentile(0.0), sorted.front());    // clamped to min
  EXPECT_DOUBLE_EQ(s.percentile(100.0), sorted.back());   // clamped to max
}

TEST(HistogramPercentiles, WithinBucketBoundOnUniform) {
  Rng rng(7);
  std::vector<double> sample(20000);
  for (auto& v : sample) v = 1e-6 + rng.uniform() * 5e-3;
  expect_percentiles_within_bound(sample);
}

TEST(HistogramPercentiles, WithinBucketBoundOnLogNormal) {
  // Latency-shaped: heavy right tail across several octaves.
  Rng rng(11);
  std::vector<double> sample(20000);
  for (auto& v : sample) v = 1e-4 * std::exp(1.5 * rng.normal());
  expect_percentiles_within_bound(sample);
}

TEST(HistogramPercentiles, WithinBucketBoundOnBimodal) {
  // Fast path + slow path, three orders of magnitude apart.
  Rng rng(13);
  std::vector<double> sample(10000);
  for (std::size_t i = 0; i < sample.size(); ++i) {
    sample[i] = (i % 10 == 0) ? 1e-2 * (1.0 + 0.1 * rng.uniform())
                              : 1e-5 * (1.0 + 0.1 * rng.uniform());
  }
  expect_percentiles_within_bound(sample);
}

TEST(HistogramPercentiles, MatchesServiceTelemetryDocumentedError) {
  // The acceptance criterion: percentiles from the histogram agree with
  // exact computation (util/stats on the raw sample) within the documented
  // 1/kSubBuckets relative bucket error.
  Rng rng(17);
  std::vector<double> sample(50000);
  Histogram h;
  for (auto& v : sample) {
    v = 50e-6 * std::exp(0.8 * rng.normal());
    h.record(v);
  }
  const HistogramSnapshot s = h.snapshot();
  for (const double q : {50.0, 95.0, 99.0}) {
    const double exact = percentile(sample, q);
    EXPECT_NEAR(s.percentile(q), exact,
                exact * (1.0 / Histogram::kSubBuckets) + 1e-15)
        << "q=" << q;
  }
  // max is exact, never quantized.
  EXPECT_DOUBLE_EQ(s.max, *std::max_element(sample.begin(), sample.end()));
}

TEST(HistogramPercentiles, EmptyAndSingleton) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.snapshot().percentile(50.0), 0.0);
  EXPECT_THROW((void)h.snapshot().percentile(-1.0), std::invalid_argument);
  EXPECT_THROW((void)h.snapshot().percentile(101.0), std::invalid_argument);
  EXPECT_THROW((void)h.snapshot().percentile(std::nan("")),
               std::invalid_argument);
  h.record(3.5e-4);
  const HistogramSnapshot s = h.snapshot();
  // One sample: every quantile is clamped onto it exactly.
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 3.5e-4);
  EXPECT_DOUBLE_EQ(s.percentile(50.0), 3.5e-4);
  EXPECT_DOUBLE_EQ(s.percentile(100.0), 3.5e-4);
}

// ---------------------------------------------------------------------------
// Merge
// ---------------------------------------------------------------------------

HistogramSnapshot snap_of(const std::vector<double>& values) {
  Histogram h;
  for (const double v : values) h.record(v);
  return h.snapshot();
}

void expect_same(const HistogramSnapshot& a, const HistogramSnapshot& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_DOUBLE_EQ(a.sum, b.sum);
  EXPECT_DOUBLE_EQ(a.min, b.min);
  EXPECT_DOUBLE_EQ(a.max, b.max);
  ASSERT_EQ(a.counts.size(), b.counts.size());
  for (std::size_t i = 0; i < a.counts.size(); ++i)
    EXPECT_EQ(a.counts[i], b.counts[i]) << "bucket " << i;
}

TEST(HistogramMerge, MergeEqualsRecordingTheUnion) {
  // FP-exact values (multiples of 2^-20) so sums match bit-for-bit.
  std::vector<double> all;
  std::vector<std::vector<double>> shards(3);
  Rng rng(23);
  for (int i = 0; i < 3000; ++i) {
    const double v =
        std::ldexp(std::floor(rng.uniform() * 4096.0) + 1.0, -20);
    shards[static_cast<std::size_t>(i) % 3].push_back(v);
    all.push_back(v);
  }
  HistogramSnapshot merged = snap_of(shards[0]);
  merged.merge(snap_of(shards[1]));
  merged.merge(snap_of(shards[2]));
  expect_same(merged, snap_of(all));
}

TEST(HistogramMerge, IsAssociativeAndCommutative) {
  const HistogramSnapshot a = snap_of({std::ldexp(3.0, -10),
                                       std::ldexp(5.0, -8)});
  const HistogramSnapshot b = snap_of({std::ldexp(7.0, -12)});
  const HistogramSnapshot c = snap_of({std::ldexp(9.0, -6),
                                       std::ldexp(11.0, -14)});

  HistogramSnapshot ab_c = a;   // (a + b) + c
  ab_c.merge(b);
  ab_c.merge(c);
  HistogramSnapshot bc_a = b;   // (b + c) + a
  bc_a.merge(c);
  bc_a.merge(a);
  HistogramSnapshot ca_b = c;   // (c + a) + b
  ca_b.merge(a);
  ca_b.merge(b);
  expect_same(ab_c, bc_a);
  expect_same(bc_a, ca_b);
}

TEST(HistogramMerge, EmptyIsIdentity) {
  const HistogramSnapshot x = snap_of({1e-3, 2e-3});
  HistogramSnapshot left;  // empty + x
  left.merge(x);
  expect_same(left, x);
  HistogramSnapshot right = x;  // x + empty
  right.merge(HistogramSnapshot{});
  expect_same(right, x);
}

// ---------------------------------------------------------------------------
// Multi-writer hammer (the TSan proof, mirroring the telemetry test)
// ---------------------------------------------------------------------------

TEST(HistogramConcurrency, ParallelWritersLoseNothing) {
  constexpr int kWriters = 8;
  constexpr int kRecords = 20000;
  Histogram h;
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) (void)h.snapshot();
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kRecords; ++i) h.record(1e-6 * (w + 1));
    });
  }
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();

  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kWriters) * kRecords);
  std::uint64_t total = 0;
  for (const auto c : s.counts) total += c;
  EXPECT_EQ(total, s.count);  // every record landed in exactly one bucket
  EXPECT_DOUBLE_EQ(s.min, 1e-6);
  EXPECT_DOUBLE_EQ(s.max, kWriters * 1e-6);
}

// ---------------------------------------------------------------------------
// Prometheus exposition + validator round-trip
// ---------------------------------------------------------------------------

TEST(Prometheus, RendersAllKindsAndValidates) {
  MetricsSnapshot snap;
  snap.counter("tsunami_ticks_total", 12345, {}, "Ticks assimilated");
  snap.gauge("tsunami_events_in_flight", 6, {{"shard", "a"}});
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.record(i * 1e-6);
  snap.histogram("tsunami_push_latency_seconds", h.snapshot(), {},
                 "Push latency");

  const std::string text = prometheus_text(snap);
  EXPECT_EQ(validate_prometheus(text), "");
  EXPECT_NE(text.find("# TYPE tsunami_ticks_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("tsunami_events_in_flight{shard=\"a\"} 6"),
            std::string::npos);
  EXPECT_NE(text.find("tsunami_push_latency_seconds_bucket{le=\"+Inf\"} 1000"),
            std::string::npos);
  EXPECT_NE(text.find("tsunami_push_latency_seconds_count 1000"),
            std::string::npos);

  // Histogram bucket lines must be cumulative and end at count.
  std::uint64_t prev = 0;
  std::size_t pos = 0;
  while ((pos = text.find("_bucket{le=", pos)) != std::string::npos) {
    const std::size_t sp = text.find(' ', pos);
    const std::uint64_t cum = std::stoull(text.substr(sp + 1));
    EXPECT_GE(cum, prev);
    prev = cum;
    pos = sp;
  }
  EXPECT_EQ(prev, 1000u);
}

TEST(Prometheus, RejectsDuplicateSeriesAndBadNames) {
  MetricsSnapshot dup;
  dup.counter("x_total", 1);
  dup.counter("x_total", 2);
  EXPECT_THROW((void)prometheus_text(dup), std::invalid_argument);

  MetricsSnapshot ok_labels;
  ok_labels.counter("x_total", 1, {{"w", "0"}});
  ok_labels.counter("x_total", 2, {{"w", "1"}});
  EXPECT_EQ(validate_prometheus(prometheus_text(ok_labels)), "");

  MetricsSnapshot bad;
  bad.counter("1starts_with_digit", 1);
  EXPECT_THROW((void)prometheus_text(bad), std::invalid_argument);

  MetricsSnapshot conflict;
  conflict.counter("y", 1);
  conflict.gauge("y", 2);
  EXPECT_THROW((void)prometheus_text(conflict), std::invalid_argument);
}

TEST(Prometheus, ValidatorCatchesMalformedText) {
  EXPECT_EQ(validate_prometheus(""), "");
  EXPECT_EQ(validate_prometheus("a_total 1\nb_total 2.5e-3\nc NaN\n"), "");
  EXPECT_NE(validate_prometheus("a_total 1\na_total 2\n"), "");  // dup series
  EXPECT_NE(validate_prometheus("9bad 1\n"), "");                // bad name
  EXPECT_NE(validate_prometheus("a_total\n"), "");               // no value
  EXPECT_NE(validate_prometheus("a_total xyz\n"), "");           // bad value
  EXPECT_NE(validate_prometheus("a{w=\"0\" 1\n"), "");  // unterminated labels
  EXPECT_NE(validate_prometheus("# TYPE a counter\n# TYPE a gauge\n"), "");
  EXPECT_NE(validate_prometheus("# TYPE a widget\n"), "");
  // Escaped quotes inside label values parse.
  EXPECT_EQ(validate_prometheus("a{w=\"x\\\"y\"} 1\n"), "");
}

TEST(Prometheus, LabelValuesAreEscaped) {
  MetricsSnapshot snap;
  snap.gauge("g", 1, {{"path", "a\"b\\c\nd"}});
  const std::string text = prometheus_text(snap);
  EXPECT_EQ(validate_prometheus(text), "");
  EXPECT_NE(text.find("g{path=\"a\\\"b\\\\c\\nd\"} 1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Bridges
// ---------------------------------------------------------------------------

TEST(Bridge, TimersBecomeSeries) {
  TimerRegistry timers;
  timers.add("phase1: form F", 1.25);
  timers.add("phase1: form F", 0.75);
  timers.add("phase2: form+factorize K", 3.0);
  MetricsSnapshot snap;
  collect_timers(timers, snap);
  ASSERT_EQ(snap.samples.size(), 4u);  // seconds + invocations per phase
  const std::string text = prometheus_text(snap);
  EXPECT_EQ(validate_prometheus(text), "");
  EXPECT_NE(
      text.find("tsunami_phase_seconds_total{phase=\"phase1: form F\"} 2"),
      std::string::npos);
  EXPECT_NE(text.find(
                "tsunami_phase_invocations_total{phase=\"phase1: form F\"} 2"),
            std::string::npos);
}

TEST(Bridge, PoolStatsExportOneSeriesPerWorker) {
  ThreadPool& pool = ThreadPool::global();
  pool.run(64, [](std::size_t, std::size_t) {
    volatile double x = 0;
    for (int i = 0; i < 1000; ++i) x = x + 1.0;
  });
  // run() returns once every item is done, which the caller alone can reach
  // before a sleeping worker wakes for its helper job; wait for the helpers
  // so their job counts are in the stats read below.
  pool.wait_idle();
  MetricsSnapshot snap;
  collect_pool(pool, snap);
  const std::string text = prometheus_text(snap);
  EXPECT_EQ(validate_prometheus(text), "");
  EXPECT_NE(text.find("tsunami_pool_workers"), std::string::npos);
  // One pool-wide queue gauge; no steal series, since no worker steals.
  EXPECT_NE(text.find("# TYPE tsunami_pool_queue_depth gauge"),
            std::string::npos);
  EXPECT_EQ(text.find("_steals_total"), std::string::npos);
  EXPECT_EQ(text.find("tsunami_pool_worker_queue_depth"), std::string::npos);
  const auto stats = pool.worker_stats();
  ASSERT_EQ(stats.size(), pool.num_threads());
  for (std::size_t i = 0; i < stats.size(); ++i) {
    const std::string label = "{worker=\"" + std::to_string(i) + "\"}";
    EXPECT_NE(text.find("tsunami_pool_worker_jobs_total" + label),
              std::string::npos);
    // The idle spin's CPU cost, beside (not inside) the busy time.
    EXPECT_NE(text.find("tsunami_pool_worker_spin_seconds_total" + label),
              std::string::npos);
    EXPECT_GE(stats[i].spin_seconds, 0.0);
  }
  EXPECT_NE(text.find("# TYPE tsunami_pool_worker_spin_seconds_total counter"),
            std::string::npos);
  // With >1 worker the loop's helper jobs must have been executed by
  // somebody; at 1 worker the caller runs everything inline.
  if (pool.num_threads() > 1) {
    std::uint64_t jobs = 0;
    for (const auto& s : stats) jobs += s.jobs;
    EXPECT_GT(jobs, 0u);
  }
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

TEST(Trace, SpansAppearInChromeJson) {
  clear_trace();
  set_trace_enabled(true);
  set_thread_name("test-main");
  {
    TRACE_SCOPE("test", "outer");
    TRACE_SCOPE("test2", "inner");
  }
  set_trace_enabled(false);

  const std::string json = chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"test\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("test-main"), std::string::npos);
  EXPECT_GE(trace_span_count(), 2u);
  clear_trace();
  EXPECT_EQ(trace_span_count(), 0u);
}

TEST(Trace, DisabledRecordsNothing) {
  clear_trace();
  set_trace_enabled(false);
  {
    TRACE_SCOPE("test", "invisible");
  }
  EXPECT_EQ(trace_span_count(), 0u);
}

TEST(Trace, EnableMidScopeDropsTheOpenSpan) {
  // The scope captured "disabled" at construction; flipping tracing on
  // before its destructor must not record a half-timed span.
  clear_trace();
  set_trace_enabled(false);
  {
    TRACE_SCOPE("test", "straddler");
    set_trace_enabled(true);
  }
  EXPECT_EQ(trace_span_count(), 0u);
  set_trace_enabled(false);
  clear_trace();
}

TEST(Trace, RingWrapKeepsNewestSpans) {
  clear_trace();
  set_trace_buffer_capacity(64);  // floor-clamped minimum
  // A fresh thread gets the small ring; overflow it.
  std::thread t([] {
    set_trace_enabled(true);
    for (int i = 0; i < 200; ++i) {
      TRACE_SCOPE("wrap", "tick");
    }
    set_trace_enabled(false);
  });
  t.join();
  EXPECT_GE(trace_dropped_count(), 100u);
  const std::string json = chrome_trace_json();
  EXPECT_NE(json.find("\"cat\":\"wrap\""), std::string::npos);
  set_trace_buffer_capacity(8192);
  clear_trace();
}

TEST(Trace, ConcurrentWritersAndExporterAreRaceFree) {
  clear_trace();
  set_trace_enabled(true);
  std::atomic<bool> done{false};
  std::thread exporter([&] {
    while (!done.load(std::memory_order_acquire)) (void)chrome_trace_json();
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([] {
      for (int i = 0; i < 5000; ++i) {
        TRACE_SCOPE("hammer", "span");
      }
    });
  }
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  exporter.join();
  set_trace_enabled(false);
  EXPECT_GT(trace_span_count(), 0u);
  clear_trace();
}

}  // namespace
}  // namespace tsunami::obs
