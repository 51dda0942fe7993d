#pragma once

// Shared benchmark harness: machine-readable JSON output + the CI smoke
// knob, so the perf trajectory of the hot kernels is comparable across PRs
// without scraping stdout tables.
//
// Every benchmark that uses this helper emits BENCH_<name>.json in the
// current working directory alongside its human-readable tables. Schema:
//   {
//     "bench": "<name>",
//     "quick": false,
//     "meta": {"git_sha": "...", "hardware_threads": 8,
//              "tsunami_num_threads": 8, "timestamp": "2026-01-01T00:00:00Z"},
//     "cases": [
//       {"name": "...", "shape": {"rows": 8, ...},
//        "reps": 25, "median_ns": ..., "p10_ns": ..., "p90_ns": ...},
//       ...
//     ],
//     "notes": {"sec_vii_c.matvec_speedup": 3590.0, ...}
//   }
//
// Quick mode: setting TSUNAMI_BENCH_QUICK=1 caps every repetition count at 1
// (and benchmarks are expected to shrink their sweep). CI's Release job runs
// the kernel benchmarks this way — the point is to EXECUTE the kernels, not
// to collect statistics on shared runners.

#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace tsunami::benchutil {

/// True when TSUNAMI_BENCH_QUICK is set to anything but "" or "0".
[[nodiscard]] bool quick_mode();

/// `full_reps` normally; 1 in quick mode.
[[nodiscard]] int reps(int full_reps);

/// Order statistics of one timed case, in nanoseconds.
struct Stat {
  double median_ns = 0.0;
  double p10_ns = 0.0;
  double p90_ns = 0.0;
  int reps = 0;
};

/// Time `n` invocations of fn and summarize. The first invocation is run
/// (and discarded) as warmup when n > 1, so one-time lazy allocation does
/// not pollute the distribution.
[[nodiscard]] Stat time_reps(int n, const std::function<void()>& fn);

/// Summarize an externally collected sample of per-iteration seconds.
[[nodiscard]] Stat from_seconds(const std::vector<double>& seconds);

/// Accumulates cases and writes BENCH_<name>.json.
class JsonReport {
 public:
  explicit JsonReport(std::string bench_name);
  /// Writes the file on destruction if write() was never called.
  ~JsonReport();
  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;

  /// `shape` entries are recorded verbatim as a JSON object.
  void add(const std::string& case_name,
           const std::vector<std::pair<std::string, double>>& shape,
           const Stat& stat);

  /// Free-form scalar attached at the top level (speedups, thread counts...).
  void note(const std::string& key, double value);

  /// Write BENCH_<name>.json in the CWD; returns the file name.
  std::string write();

 private:
  struct Case {
    std::string name;
    std::vector<std::pair<std::string, double>> shape;
    Stat stat;
  };
  std::string name_;
  std::vector<Case> cases_;
  std::vector<std::pair<std::string, double>> notes_;
  bool written_ = false;
};

}  // namespace tsunami::benchutil
