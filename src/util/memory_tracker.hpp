#pragma once

// Byte-accounting for the paper's §VII-B memory-optimization study.
//
// The paper instruments host/device memory usage per component and reports a
// 5.33x footprint reduction from storage optimizations (recomputing geometry
// factors, fusing permutations, reusing RK4 temporaries, ...). We reproduce
// the accounting: every major allocation registers its logical size under a
// component name, and bench_paper's SecVII-B section reports bytes/DOF per
// assembly variant.

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace tsunami {

/// Explicit (opt-in) memory ledger. Components report logical allocation
/// sizes; the ledger aggregates by category.
class MemoryTracker {
 public:
  void add(const std::string& category, std::size_t bytes);
  void release(const std::string& category, std::size_t bytes);

  [[nodiscard]] std::size_t bytes(const std::string& category) const;
  [[nodiscard]] std::size_t total_bytes() const;
  [[nodiscard]] std::size_t peak_bytes() const { return peak_; }
  [[nodiscard]] const std::vector<std::string>& categories() const {
    return order_;
  }
  void clear();

 private:
  std::map<std::string, std::size_t> bytes_;
  std::vector<std::string> order_;
  std::size_t current_ = 0;
  std::size_t peak_ = 0;
};

}  // namespace tsunami
