#pragma once

// Order statistics of a stored sample.
//
// The paper quotes tail behavior, not just means ("the online phase must
// keep up with data arrival"), and a warning service is judged by its p99
// push latency: one slow assimilation during a real event is a late alert.
// This header is the one definition of "percentile" for the ScenarioBank
// sweep reports (src/core/) and the bench drivers (bench/). The service's
// live telemetry does not use it: ServiceTelemetry reads its percentiles
// from obs::Histogram (src/obs/metrics.hpp) and borrows only the
// LatencySummary shape.

#include <cstddef>
#include <span>
#include <vector>

namespace tsunami {

/// The q-th percentile (q in [0, 100]) of an ascending-sorted sample, using
/// linear interpolation between closest ranks (the numpy default). Returns
/// 0 for an empty sample; throws std::invalid_argument for q outside
/// [0, 100], NaN included. The input must already be sorted — this overload trusts its
/// caller and costs O(1).
[[nodiscard]] double percentile_sorted(std::span<const double> sorted,
                                       double q);

/// As above for an unsorted sample: copies, then selects the bracketing
/// ranks with std::nth_element — O(n) expected, no full sort.
[[nodiscard]] double percentile(std::span<const double> sample, double q);

/// The five numbers every latency table in this repo prints. Aggregated
/// once from a sample via `summarize_latencies`.
struct LatencySummary {
  std::size_t count = 0;
  double mean = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Fills a LatencySummary from `sample` (consumed as scratch). Percentiles
/// come from per-quantile std::nth_element selection — O(n) expected each,
/// replacing the old full sort — and agree exactly with the sorted
/// interpolating estimator (asserted in tests/test_util.cpp).
[[nodiscard]] LatencySummary summarize_latencies(std::vector<double> sample);

}  // namespace tsunami
