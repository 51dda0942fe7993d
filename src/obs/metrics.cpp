#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>

namespace tsunami::obs {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram()
    : buckets_(new std::atomic<std::uint64_t>[kNumBuckets]),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  // mo: relaxed — single-threaded construction; publication of the object
  // itself is the caller's synchronization problem.
  for (std::size_t i = 0; i < kNumBuckets; ++i)
    buckets_[i].store(0, std::memory_order_relaxed);
}

std::size_t Histogram::bucket_index(double v) {
  if (!(v > 0.0)) return 0;  // zero, negative, NaN -> underflow bucket
  int exp = 0;
  const double m = std::frexp(v, &exp);  // v = m * 2^exp, m in [0.5, 1)
  if (exp < kMinExp) return 0;
  if (exp >= kMaxExp) return kNumBuckets - 1;
  // Sub-buckets are linear in the significand: sub = floor((m - 0.5) * 2B).
  auto sub = static_cast<std::size_t>((m - 0.5) *
                                      static_cast<double>(2 * kSubBuckets));
  sub = std::min<std::size_t>(sub, kSubBuckets - 1);
  return static_cast<std::size_t>(exp - kMinExp) * kSubBuckets + sub;
}

double Histogram::bucket_lower_bound(std::size_t i) {
  if (i == 0) return 0.0;  // underflow bucket reaches down to zero
  if (i >= kNumBuckets) return std::numeric_limits<double>::infinity();
  const int exp = kMinExp + static_cast<int>(i / kSubBuckets);
  const auto sub = static_cast<double>(i % kSubBuckets);
  return std::ldexp(0.5 + sub / static_cast<double>(2 * kSubBuckets), exp);
}

double Histogram::bucket_upper_bound(std::size_t i) {
  return bucket_lower_bound(i + 1);
}

TSUNAMI_HOT_PATH void Histogram::record(double v) {
  // mo: relaxed throughout — each field is an independent statistic; no
  // reader infers anything about OTHER memory from them, and snapshot()
  // reconciles cross-field skew (count vs buckets) after the fact. Stronger
  // orders would serialize every worker's push-latency recording for no
  // observable benefit.
  buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);  // CAS loop under the hood
  double cur = min_.load(std::memory_order_relaxed);
  // mo: relaxed — the CAS only has to be atomic on min_/max_ itself; the
  // retry loop re-reads the latest value on failure either way.
  while (v < cur &&
         !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (v > cur &&
         !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot s;
  s.counts.resize(kNumBuckets);
  // mo: relaxed — a monitoring snapshot racing writers is allowed to be
  // slightly torn; the count/bucket reconciliation below restores the
  // invariant percentile() needs.
  for (std::size_t i = 0; i < kNumBuckets; ++i)
    s.counts[i] = buckets_[i].load(std::memory_order_relaxed);
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  // A snapshot racing writers can see count ahead of the buckets (relaxed
  // ordering); percentile() walks the bucket counts, so reconcile count to
  // what the buckets actually hold.
  std::uint64_t in_buckets = 0;
  for (const std::uint64_t c : s.counts) in_buckets += c;
  s.count = std::min(s.count, in_buckets);
  if (s.count == 0) {
    s.min = s.max = 0.0;
  } else {
    // mo: relaxed — min/max are monotone under concurrent record(); any
    // value read is one some record() actually wrote.
    s.min = min_.load(std::memory_order_relaxed);
    s.max = max_.load(std::memory_order_relaxed);
  }
  return s;
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  if (counts.size() < other.counts.size()) counts.resize(other.counts.size());
  for (std::size_t i = 0; i < other.counts.size(); ++i)
    counts[i] += other.counts[i];
  if (other.count != 0) {
    min = count == 0 ? other.min : std::min(min, other.min);
    max = count == 0 ? other.max : std::max(max, other.max);
  }
  count += other.count;
  sum += other.sum;
}

double HistogramSnapshot::percentile(double q) const {
  if (!(q >= 0.0 && q <= 100.0))
    throw std::invalid_argument("HistogramSnapshot::percentile: q outside [0, 100]");
  if (count == 0) return 0.0;
  // Exact rank (nearest-rank with the same floor convention as util/stats):
  // the k-th smallest sample, k = floor(q/100 * (count - 1)), zero-based.
  const auto k = static_cast<std::uint64_t>(
      q / 100.0 * static_cast<double>(count - 1));
  // The extreme ranks are tracked exactly (min_/max_ CAS in record()), so
  // p0 and p100 need no bucket estimate at all.
  if (k == 0) return min;
  if (k == count - 1) return max;
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    cum += counts[i];
    if (cum > k) {
      const double lo = Histogram::bucket_lower_bound(i);
      const double hi = Histogram::bucket_upper_bound(i);
      const double mid = std::isinf(hi) ? lo : 0.5 * (lo + hi);
      // The exact order statistic lies inside this bucket AND inside
      // [min, max]; clamping costs nothing and makes p0/p100 exact.
      return std::clamp(mid, min, max);
    }
  }
  return max;  // unreachable when counts is consistent with count
}

// ---------------------------------------------------------------------------
// MetricsSnapshot
// ---------------------------------------------------------------------------

void MetricsSnapshot::counter(std::string name, double value, Labels labels,
                              std::string help) {
  samples.push_back(MetricSample{std::move(name), std::move(labels),
                                 std::move(help), MetricSample::Kind::kCounter,
                                 value, {}});
}

void MetricsSnapshot::gauge(std::string name, double value, Labels labels,
                            std::string help) {
  samples.push_back(MetricSample{std::move(name), std::move(labels),
                                 std::move(help), MetricSample::Kind::kGauge,
                                 value, {}});
}

void MetricsSnapshot::histogram(std::string name, HistogramSnapshot hist,
                                Labels labels, std::string help) {
  MetricSample s;
  s.name = std::move(name);
  s.labels = std::move(labels);
  s.help = std::move(help);
  s.kind = MetricSample::Kind::kHistogram;
  s.hist = std::move(hist);
  samples.push_back(std::move(s));
}

// ---------------------------------------------------------------------------
// Exposition
// ---------------------------------------------------------------------------

namespace {

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  if (!head(name[0])) return false;
  for (const char c : name)
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  return true;
}

bool valid_label_name(const std::string& name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
  };
  if (!head(name[0])) return false;
  for (const char c : name)
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  return true;
}

void append_label_value_escaped(std::string& out, const std::string& v) {
  for (const char c : v) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
}

/// `{a="x",b="y"}` (empty string for no labels), with an optional extra
/// label appended (the histogram `le`).
std::string render_labels(const Labels& labels, const char* extra_name,
                          const std::string& extra_value) {
  if (labels.empty() && extra_name == nullptr) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k + "=\"";
    append_label_value_escaped(out, v);
    out += "\"";
  }
  if (extra_name != nullptr) {
    if (!first) out += ",";
    out += std::string(extra_name) + "=\"";
    append_label_value_escaped(out, extra_value);
    out += "\"";
  }
  out += "}";
  return out;
}

std::string format_value(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  if (std::isnan(v)) return "NaN";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const char* kind_str(MetricSample::Kind k) {
  switch (k) {
    case MetricSample::Kind::kCounter: return "counter";
    case MetricSample::Kind::kGauge: return "gauge";
    case MetricSample::Kind::kHistogram: return "histogram";
  }
  return "untyped";
}

void check_sample(const MetricSample& s) {
  if (!valid_metric_name(s.name))
    throw std::invalid_argument("prometheus_text: invalid metric name '" +
                                s.name + "'");
  for (const auto& [k, v] : s.labels) {
    (void)v;
    if (!valid_label_name(k) || k == "le")
      throw std::invalid_argument("prometheus_text: invalid label name '" + k +
                                  "' on metric '" + s.name + "'");
  }
}

}  // namespace

std::string prometheus_text(const MetricsSnapshot& snapshot) {
  std::string out;
  std::set<std::string> seen_series;
  std::map<std::string, MetricSample::Kind> family_kind;
  auto emit_series = [&](const std::string& line_key) {
    if (!seen_series.insert(line_key).second)
      throw std::invalid_argument("prometheus_text: duplicate series " +
                                  line_key);
  };

  for (const MetricSample& s : snapshot.samples) {
    check_sample(s);
    const auto [it, fresh] = family_kind.emplace(s.name, s.kind);
    if (!fresh && it->second != s.kind)
      throw std::invalid_argument(
          "prometheus_text: metric '" + s.name +
          "' registered with conflicting kinds");
    if (fresh) {
      if (!s.help.empty()) {
        out += "# HELP " + s.name + " ";
        for (const char c : s.help) out += c == '\n' ? ' ' : c;
        out += "\n";
      }
      out += "# TYPE " + s.name + " " + kind_str(s.kind) + "\n";
    }

    if (s.kind != MetricSample::Kind::kHistogram) {
      const std::string labels = render_labels(s.labels, nullptr, {});
      emit_series(s.name + labels);
      out += s.name + labels + " " + format_value(s.value) + "\n";
      continue;
    }

    // Histogram: cumulative buckets over the non-empty boundaries (counts
    // between emitted `le` values are zero, so cumulativity is preserved),
    // then the mandatory +Inf, _sum, and _count series.
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < s.hist.counts.size(); ++i) {
      if (s.hist.counts[i] == 0) continue;
      cum += s.hist.counts[i];
      const std::string upper = format_value(Histogram::bucket_upper_bound(i));
      const std::string labels = render_labels(s.labels, "le", upper);
      emit_series(s.name + "_bucket" + labels);
      out += s.name + "_bucket" + labels + " " + std::to_string(cum) + "\n";
    }
    const std::string inf_labels = render_labels(s.labels, "le", "+Inf");
    emit_series(s.name + "_bucket" + inf_labels);
    out += s.name + "_bucket" + inf_labels + " " +
           std::to_string(s.hist.count) + "\n";
    const std::string labels = render_labels(s.labels, nullptr, {});
    emit_series(s.name + "_sum" + labels);
    out += s.name + "_sum" + labels + " " + format_value(s.hist.sum) + "\n";
    emit_series(s.name + "_count" + labels);
    out += s.name + "_count" + labels + " " + std::to_string(s.hist.count) +
           "\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// Validator
// ---------------------------------------------------------------------------

namespace {

/// Parse `name{labels} value` into its rendered series key; returns false
/// (with `error` set) on grammar violations.
bool parse_sample_line(const std::string& line, std::string& series_key,
                       std::string& metric_name, std::string& error) {
  std::size_t i = 0;
  const std::size_t n = line.size();
  std::size_t name_end = i;
  while (name_end < n && line[name_end] != '{' && line[name_end] != ' ' &&
         line[name_end] != '\t')
    ++name_end;
  metric_name = line.substr(0, name_end);
  if (!valid_metric_name(metric_name)) {
    error = "invalid metric name in line: " + line;
    return false;
  }
  i = name_end;
  series_key = metric_name;
  if (i < n && line[i] == '{') {
    const std::size_t close = line.find('}', i);
    if (close == std::string::npos) {
      error = "unterminated label set: " + line;
      return false;
    }
    // Validate label pairs: name="value" separated by commas; values may
    // contain escaped quotes.
    std::size_t p = i + 1;
    while (p < close) {
      std::size_t eq = line.find('=', p);
      if (eq == std::string::npos || eq > close) {
        error = "malformed label pair: " + line;
        return false;
      }
      if (!valid_label_name(line.substr(p, eq - p))) {
        error = "invalid label name in line: " + line;
        return false;
      }
      if (eq + 1 >= close || line[eq + 1] != '"') {
        error = "label value not quoted: " + line;
        return false;
      }
      std::size_t q = eq + 2;
      while (q < close && line[q] != '"') q += line[q] == '\\' ? 2 : 1;
      if (q >= close) {
        error = "unterminated label value: " + line;
        return false;
      }
      p = q + 1;
      if (p < close) {
        if (line[p] != ',') {
          error = "missing comma between labels: " + line;
          return false;
        }
        ++p;
      }
    }
    series_key = line.substr(0, close + 1);
    i = close + 1;
  }
  while (i < n && (line[i] == ' ' || line[i] == '\t')) ++i;
  if (i >= n) {
    error = "missing value: " + line;
    return false;
  }
  const std::string value = line.substr(i, line.find_first_of(" \t", i) - i);
  if (value != "+Inf" && value != "-Inf" && value != "NaN") {
    char* end = nullptr;
    const std::string v = value;
    std::strtod(v.c_str(), &end);
    if (end == v.c_str() || *end != '\0') {
      error = "unparseable value '" + value + "' in line: " + line;
      return false;
    }
  }
  return true;
}

}  // namespace

std::string validate_prometheus(const std::string& text) {
  std::set<std::string> series;
  std::set<std::string> typed_families;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    if (line[0] == '#') {
      // "# TYPE <name> <kind>" and "# HELP <name> <text>"; other comments
      // pass through.
      if (line.rfind("# TYPE ", 0) == 0) {
        const std::size_t name_start = 7;
        const std::size_t name_end = line.find(' ', name_start);
        if (name_end == std::string::npos)
          return "TYPE line missing kind: " + line;
        const std::string name = line.substr(name_start, name_end - name_start);
        if (!valid_metric_name(name))
          return "TYPE line with invalid metric name: " + line;
        const std::string kind = line.substr(name_end + 1);
        if (kind != "counter" && kind != "gauge" && kind != "histogram" &&
            kind != "summary" && kind != "untyped")
          return "TYPE line with unknown kind: " + line;
        if (!typed_families.insert(name).second)
          return "duplicate TYPE declaration for family " + name;
      }
      continue;
    }
    std::string key, name, error;
    if (!parse_sample_line(line, key, name, error)) return error;
    if (!series.insert(key).second) return "duplicate series " + key;
  }
  return {};
}

}  // namespace tsunami::obs
