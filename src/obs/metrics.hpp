#pragma once

// Unified metrics: log-bucketed mergeable histograms, point-in-time
// counter/gauge/histogram samples, and one export path (Prometheus text
// exposition) shared by the offline phase tables, the thread pool, and the
// online warning service.
//
// Why a histogram and not a sample ring: the serving layer used to keep the
// most recent 64k push latencies and sort them per snapshot — percentiles
// over a *window*, O(n log n) per read, and two services' windows cannot be
// combined. The Histogram here is HDR-style: values land in log-bucketed
// counters (each power of two split into kSubBuckets linear sub-buckets), so
//   * recording is a relaxed fetch_add — multi-writer safe, wait-free;
//   * percentiles are exact-rank over the FULL LIFETIME of the series, not a
//     sample window, with relative quantization error bounded by the bucket
//     width: |estimate - exact| / exact <= 1 / kSubBuckets (the estimate is
//     a bucket midpoint; see bucket_lower_bound). Tested against exact
//     percentiles on known distributions in tests/test_obs.cpp.
//   * snapshots MERGE by adding bucket counts — shards, workers, or repeated
//     runs combine losslessly (merge is associative and commutative on the
//     counts; asserted in tests).
//
// Export model: components keep their own live instruments (ServiceTelemetry
// its histogram, ThreadPool its per-worker counters, TimerRegistry its phase
// accumulators) and contribute point-in-time samples into a MetricsSnapshot;
// prometheus_text() renders a snapshot. One snapshot, one scrape,
// whatever the source — that is the "one export path" the offline tables and
// the online service now share (see obs/bridge.hpp for the collectors).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/hot_path.hpp"

namespace tsunami::obs {

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

/// Point-in-time copy of a Histogram; plain data, mergeable, and the thing
/// percentiles are computed from.
struct HistogramSnapshot {
  std::vector<std::uint64_t> counts;  ///< per-bucket; empty == all-zero
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< exact (not bucket-quantized); 0 when count == 0
  double max = 0.0;  ///< exact; 0 when count == 0

  /// Add another snapshot's series into this one. Bucket counts add
  /// exactly (integers), so merging is associative and commutative.
  void merge(const HistogramSnapshot& other);

  /// Exact-rank percentile (q in [0, 100]) over the lifetime series: the
  /// bucket midpoint of the bucket holding the floor(q/100 * (count-1))-th
  /// smallest sample, clamped into [min, max]. Relative error vs the exact
  /// order statistic is bounded by 1 / Histogram::kSubBuckets. Returns 0 on
  /// an empty series; throws std::invalid_argument for q outside [0, 100],
  /// NaN included.
  [[nodiscard]] double percentile(double q) const;

  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

/// Lock-free log-bucketed histogram of positive doubles (latencies in
/// seconds, sizes, ...). See the header comment for the design rationale.
class Histogram {
 public:
  /// Linear sub-buckets per power of two. 32 bounds the relative
  /// quantization error of a percentile at 1/32 ~= 3.1% (midpoint estimate:
  /// typically half that).
  static constexpr int kSubBuckets = 32;
  /// frexp exponent range covered exactly: [2^-40, 2^40) ~= [9.1e-13,
  /// 1.1e12). Values below (including zero/negative/NaN) land in the first
  /// bucket, above in the last — counted, never lost.
  static constexpr int kMinExp = -40;
  static constexpr int kMaxExp = 40;
  static constexpr std::size_t kNumBuckets =
      static_cast<std::size_t>(kMaxExp - kMinExp) * kSubBuckets;

  Histogram();

  /// Record one value. Wait-free: one bucket fetch_add + count/sum/min/max
  /// relaxed atomics. Any thread.
  TSUNAMI_HOT_PATH void record(double v);

  [[nodiscard]] HistogramSnapshot snapshot() const;

  // mo: relaxed — monitoring read; snapshot() reconciles any cross-field
  // skew, a lone count needs no ordering.
  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }

  /// Bucket index for a value (public for the tests' error-bound math).
  [[nodiscard]] static std::size_t bucket_index(double v);
  /// Inclusive lower edge of bucket i.
  [[nodiscard]] static double bucket_lower_bound(std::size_t i);
  /// Exclusive upper edge of bucket i (== lower bound of i + 1).
  [[nodiscard]] static double bucket_upper_bound(std::size_t i);

 private:
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

// ---------------------------------------------------------------------------
// Snapshot + exposition
// ---------------------------------------------------------------------------

using Labels = std::vector<std::pair<std::string, std::string>>;

/// One exported time series at one point in time.
struct MetricSample {
  enum class Kind { kCounter, kGauge, kHistogram };
  std::string name;  ///< Prometheus metric name ([a-zA-Z_:][a-zA-Z0-9_:]*)
  Labels labels;
  std::string help;  ///< optional # HELP text
  Kind kind = Kind::kGauge;
  double value = 0.0;       ///< counter/gauge
  HistogramSnapshot hist;   ///< histogram
};

/// The unit of export: an ordered bag of samples contributed by any number
/// of components (pool stats, timer tables, service telemetry), rendered
/// once.
struct MetricsSnapshot {
  std::vector<MetricSample> samples;

  void counter(std::string name, double value, Labels labels = {},
               std::string help = {});
  void gauge(std::string name, double value, Labels labels = {},
             std::string help = {});
  void histogram(std::string name, HistogramSnapshot hist, Labels labels = {},
                 std::string help = {});
};

/// Prometheus text exposition (version 0.0.4): # HELP / # TYPE headers per
/// family, `name{labels} value` samples, histograms as cumulative
/// `_bucket{le=...}` series (non-empty buckets only) + `_sum` + `_count`.
/// Throws std::invalid_argument on an invalid metric name or a duplicate
/// (name, labels) series — the bugs a scrape endpoint must not ship.
[[nodiscard]] std::string prometheus_text(const MetricsSnapshot& snapshot);

/// Validate a Prometheus text exposition: line grammar, metric-name and
/// label syntax, numeric values, no duplicate (name, labels) series, TYPE
/// declared at most once per family. Returns an empty string when valid,
/// else a description of the first problem (used by the CI smoke test).
[[nodiscard]] std::string validate_prometheus(const std::string& text);

}  // namespace tsunami::obs
