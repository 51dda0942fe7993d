#pragma once

// Measurement plumbing for the twin benchmark: sample statistics, the
// in-memory span recorder (Chrome-trace export + self time), machine probes
// (STREAM triad, /proc/stat steal, resident set, host speed), a minimal
// HTTP/1.0 GET client for the scraper, FNV-1a input hashing and a tiny JSON
// writer.
//
// Everything here lives in the benchmark; nothing is added to src/.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace twinbench {

// ---- deterministic input generation ---------------------------------------

/// splitmix64: a seeded, platform-independent stream for generated inputs.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [0, n).
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(uniform() * static_cast<double>(n));
  }
  /// Standard normal (Box-Muller; one draw per call).
  double normal() {
    const double u1 = std::max(uniform(), 1e-300);
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }

 private:
  std::uint64_t s_;
};

/// FNV-1a over raw bytes, chainable.
inline std::uint64_t fnv1a(const void* data, std::size_t n,
                           std::uint64_t h = 0xcbf29ce484222325ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

template <typename T>
std::uint64_t fnv1a_vec(const std::vector<T>& v, std::uint64_t h) {
  return fnv1a(v.data(), v.size() * sizeof(T), h);
}

// ---- statistics -----------------------------------------------------------

/// Linear-interpolated percentile (q in [0, 100]) of an unsorted sample.
double percentile(std::vector<double> v, double q);

double median(std::vector<double> v);

/// Rate of a stream of event stamps (ns): the median over consecutive
/// blocks of `n` events of n / (block span), so a host stall costs one block.
double block_rate(std::vector<std::int64_t> stamps, std::size_t n);

// ---- span recorder ----------------------------------------------------------

/// One span: a call the benchmark made into a layer.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the same thread's spans
  std::uint32_t tid = 0;
  std::uint64_t event = 0;   ///< EventId, 0 when not per-event
};

/// In-memory span recorder. Each thread appends to its own buffer (no
/// sharing on the hot path); enable() must be called before the recording
/// threads start. Spans are written once, at the end.
class Tracer {
 public:
  static Tracer& get();
  void enable(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Open a span on the calling thread; returns its index (or -1).
  int begin(const char* name, std::uint64_t event);
  void end(int index);

  /// Total spans recorded.
  [[nodiscard]] std::size_t size() const;
  /// Self time per span name in seconds: span time minus the part covered
  /// by its child spans.
  [[nodiscard]] std::map<std::string, std::pair<double, std::size_t>>
  self_times() const;
  /// Write every span as Chrome-trace JSON ("X" complete events).
  bool write_chrome_trace(const std::string& path) const;

  struct Buffer;  ///< one thread's spans

 private:
  Buffer& local();
  bool enabled_ = false;
};

/// RAII span around one call into a layer.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t event = 0)
      : index_(Tracer::get().enabled() ? Tracer::get().begin(name, event)
                                       : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) Tracer::get().end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int index_;
};

// ---- machine probes -------------------------------------------------------

/// Aggregate CPU jiffies from /proc/stat ("cpu" line): total and steal.
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
  bool ok = false;
};
CpuTimes read_cpu_times();
/// Steal share of all CPU time between two readings, in percent.
double steal_pct(const CpuTimes& a, const CpuTimes& b);

/// Peak resident set (VmHWM) of this process, in MB (1e6 bytes).
double peak_rss_mb();

/// Median time of a fixed chain of dependent multiply-adds, in ms: the
/// speed the host gives this thread, independent of the program.
double speed_probe_ms();

/// CPUs the process may run on, in order.
std::vector<int> allowed_cpus();
/// Restrict the calling thread (and threads it creates later) to `cpus`.
bool pin_thread(const std::vector<int>& cpus);

/// Last-level cache size in bytes (0 if unknown).
std::size_t llc_bytes();

struct TriadResult {
  double gbs = 0.0;         ///< best-of-passes a = b + s*c bandwidth
  double array_mib = 0.0;   ///< size of each of the three arrays
};
/// STREAM-style triad over three arrays of `array_bytes` each, on `threads`
/// threads; bytes counted as 3 * array_bytes per pass (no write-allocate).
TriadResult stream_triad(std::size_t array_bytes, std::size_t threads,
                         int passes);

// ---- HTTP scrape client ---------------------------------------------------

struct ScrapeResult {
  bool ok = false;
  std::size_t body_bytes = 0;
};
/// One HTTP/1.0 GET against 127.0.0.1:port (one connection, closed after).
ScrapeResult http_get(std::uint16_t port, const char* path);

// ---- JSON -----------------------------------------------------------------

/// Ordered metric list: name -> (value, unit).
struct MetricList {
  std::vector<std::string> names;
  std::map<std::string, std::pair<double, std::string>> values;
  void set(const std::string& name, double value, const std::string& unit) {
    if (!values.count(name)) names.push_back(name);
    values[name] = {value, unit};
  }
  [[nodiscard]] std::string json() const;
};

std::string json_number(double v);

}  // namespace twinbench
