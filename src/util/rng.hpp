#pragma once

// Seeded random number generation. All stochastic components (noise, prior
// samples, randomized probing) draw from explicitly seeded streams so every
// test and experiment is reproducible run-to-run.

#include <cstdint>
#include <random>
#include <vector>

namespace tsunami {

/// Deterministic RNG wrapper around std::mt19937_64 with convenience draws.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed'cafe'f00dULL) : engine_(seed) {}

  /// Standard normal draw.
  double normal() { return normal_(engine_); }

  /// Uniform draw in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0) {
    return lo + (hi - lo) * unif_(engine_);
  }

  /// Uniform integer in [0, n).
  std::size_t index(std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(engine_);
  }

  /// Vector of iid standard normals.
  std::vector<double> normal_vector(std::size_t n);

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::normal_distribution<double> normal_{0.0, 1.0};
  std::uniform_real_distribution<double> unif_{0.0, 1.0};
};

}  // namespace tsunami
