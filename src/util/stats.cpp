#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tsunami {

double percentile_sorted(std::span<const double> sorted, double q) {
  if (!(q >= 0.0 && q <= 100.0))
    throw std::invalid_argument("percentile: q outside [0, 100]");
  if (sorted.empty()) return 0.0;
  const double pos =
      q / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

namespace {

/// Interpolated percentile by selection: nth_element places the lo-rank
/// order statistic (O(n) expected, vs O(n log n) for a full sort); the hi
/// neighbor is the minimum of the suffix nth_element left above it.
double percentile_select(std::vector<double>& v, double q) {
  const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  const auto lo_it = v.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(v.begin(), lo_it, v.end());
  const double vlo = *lo_it;
  if (frac == 0.0 || lo + 1 >= v.size()) return vlo;
  const double vhi = *std::min_element(lo_it + 1, v.end());
  return vlo + frac * (vhi - vlo);
}

}  // namespace

double percentile(std::span<const double> sample, double q) {
  if (!(q >= 0.0 && q <= 100.0))
    throw std::invalid_argument("percentile: q outside [0, 100]");
  if (sample.empty()) return 0.0;
  std::vector<double> v(sample.begin(), sample.end());
  return percentile_select(v, q);
}

LatencySummary summarize_latencies(std::vector<double> sample) {
  LatencySummary s;
  s.count = sample.size();
  if (sample.empty()) return s;
  double sum = 0.0;
  double max = sample.front();
  for (double v : sample) {
    sum += v;
    max = std::max(max, v);
  }
  s.mean = sum / static_cast<double>(sample.size());
  s.max = max;
  s.p50 = percentile_select(sample, 50.0);
  s.p95 = percentile_select(sample, 95.0);
  s.p99 = percentile_select(sample, 99.0);
  return s;
}

}  // namespace tsunami
