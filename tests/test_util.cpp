// Unit tests for the utility layer: timers, tables, memory tracking, RNG.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "util/memory_tracker.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace tsunami {
namespace {

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch w;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double t = w.seconds();
  EXPECT_GE(t, 0.015);
  EXPECT_LT(t, 5.0);
}

TEST(Stopwatch, ResetRestartsClock) {
  Stopwatch w;
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  w.reset();
  EXPECT_LT(w.seconds(), 0.010);
}

TEST(TimerRegistry, AccumulatesTotalsAndCounts) {
  TimerRegistry reg;
  reg.add("solve", 1.5);
  reg.add("solve", 0.5);
  reg.add("io", 0.25);
  EXPECT_DOUBLE_EQ(reg.total("solve"), 2.0);
  EXPECT_EQ(reg.count("solve"), 2);
  EXPECT_DOUBLE_EQ(reg.mean("solve"), 1.0);
  EXPECT_DOUBLE_EQ(reg.total("io"), 0.25);
  EXPECT_DOUBLE_EQ(reg.grand_total(), 2.25);
}

TEST(TimerRegistry, UnknownTimerIsZero) {
  TimerRegistry reg;
  EXPECT_DOUBLE_EQ(reg.total("nope"), 0.0);
  EXPECT_EQ(reg.count("nope"), 0);
  EXPECT_DOUBLE_EQ(reg.mean("nope"), 0.0);
}

TEST(TimerRegistry, PreservesInsertionOrder) {
  TimerRegistry reg;
  reg.add("Initialization", 0.1);
  reg.add("Setup", 0.2);
  reg.add("Adjoint p2o", 0.3);
  reg.add("I/O", 0.4);
  reg.add("Setup", 0.1);
  const auto& names = reg.names();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "Initialization");
  EXPECT_EQ(names[1], "Setup");
  EXPECT_EQ(names[2], "Adjoint p2o");
  EXPECT_EQ(names[3], "I/O");
}

// Concurrent sessions (src/service/) record into shared registries; the
// registry must not corrupt under parallel adds. 8 threads x 1000 adds
// across overlapping keys must land exactly.
TEST(TimerRegistry, ConcurrentAddsAreAllCounted) {
  TimerRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kAdds = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      for (int i = 0; i < kAdds; ++i)
        reg.add(t % 2 == 0 ? "even" : "odd", 0.001);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(reg.count("even"), kThreads / 2 * kAdds);
  EXPECT_EQ(reg.count("odd"), kThreads / 2 * kAdds);
  EXPECT_NEAR(reg.grand_total(), kThreads * kAdds * 0.001, 1e-9);
  EXPECT_EQ(reg.names().size(), 2u);
}

TEST(Stats, PercentileInterpolatesBetweenRanks) {
  const std::vector<double> s{1.0, 2.0, 3.0, 4.0};  // sorted
  EXPECT_DOUBLE_EQ(percentile_sorted(s, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(s, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(s, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile_sorted(s, 25.0), 1.75);
  // The unsorted overload sorts a copy.
  const std::vector<double> shuffled{3.0, 1.0, 4.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(shuffled, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile(std::vector<double>{7.0}, 99.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile(std::vector<double>{}, 50.0), 0.0);
  EXPECT_THROW((void)percentile(s, -1.0), std::invalid_argument);
  EXPECT_THROW((void)percentile(s, 100.5), std::invalid_argument);
  // NaN fails every comparison, so the range check must refuse it, not let
  // it reach the rank cast.
  EXPECT_THROW((void)percentile(s, std::nan("")), std::invalid_argument);
  EXPECT_THROW((void)percentile_sorted(s, std::nan("")),
               std::invalid_argument);
}

TEST(Stats, LatencySummaryIsOrderedAndComplete) {
  std::vector<double> sample;
  for (int i = 100; i >= 1; --i) sample.push_back(i * 1e-6);
  const LatencySummary s = summarize_latencies(sample);
  EXPECT_EQ(s.count, 100u);
  EXPECT_NEAR(s.mean, 50.5e-6, 1e-12);
  EXPECT_DOUBLE_EQ(s.max, 100e-6);
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99);
  EXPECT_LE(s.p99, s.max);
  EXPECT_NEAR(s.p50, 50.5e-6, 1e-12);
  const LatencySummary empty = summarize_latencies({});
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.max, 0.0);
}

// percentile() now selects with nth_element instead of sorting; it must be
// indistinguishable from the sorted interpolating estimator on arbitrary
// (ties, duplicates, adversarial-order) samples.
TEST(Stats, SelectionPercentileMatchesSortedEstimator) {
  Rng rng(1234);
  for (const std::size_t n : {1u, 2u, 3u, 17u, 100u, 1001u}) {
    std::vector<double> sample(n);
    for (auto& v : sample) v = std::floor(rng.uniform() * 32.0) * 1e-6;
    std::vector<double> sorted = sample;
    std::sort(sorted.begin(), sorted.end());
    for (const double q : {0.0, 1.0, 25.0, 50.0, 90.0, 95.0, 99.0, 100.0}) {
      EXPECT_DOUBLE_EQ(percentile(sample, q), percentile_sorted(sorted, q))
          << "n=" << n << " q=" << q;
    }
    const LatencySummary s = summarize_latencies(sample);
    EXPECT_DOUBLE_EQ(s.p50, percentile_sorted(sorted, 50.0));
    EXPECT_DOUBLE_EQ(s.p95, percentile_sorted(sorted, 95.0));
    EXPECT_DOUBLE_EQ(s.p99, percentile_sorted(sorted, 99.0));
    EXPECT_DOUBLE_EQ(s.max, sorted.back());
  }
}

TEST(ScopedTimer, RecordsOnDestruction) {
  TimerRegistry reg;
  {
    ScopedTimer t(reg, "scope");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(reg.total("scope"), 0.0);
  EXPECT_EQ(reg.count("scope"), 1);
}

TEST(TextTable, AlignsColumnsAndCountsRows) {
  TextTable t({"Phase", "Time"});
  t.row().cell("form F").cell(12.5, 1);
  t.row().cell("factorize K").cell(2.0, 1);
  const std::string s = t.str();
  EXPECT_NE(s.find("Phase"), std::string::npos);
  EXPECT_NE(s.find("form F"), std::string::npos);
  EXPECT_NE(s.find("12.5"), std::string::npos);
  EXPECT_NE(s.find("factorize K"), std::string::npos);
}

TEST(TextTable, CsvOutputHasHeaderAndRows) {
  TextTable t({"a", "b"});
  t.row().cell(1L).cell(2L);
  EXPECT_EQ(t.csv(), "a,b\n1,2\n");
}

TEST(FormatDuration, PicksSensibleUnits) {
  EXPECT_NE(format_duration(3e-9).find("ns"), std::string::npos);
  EXPECT_NE(format_duration(5e-6).find("us"), std::string::npos);
  EXPECT_NE(format_duration(2e-3).find("ms"), std::string::npos);
  EXPECT_NE(format_duration(1.5).find(" s"), std::string::npos);
  EXPECT_NE(format_duration(600.0).find("min"), std::string::npos);
  EXPECT_NE(format_duration(7201.0).find(" h"), std::string::npos);
}

TEST(FormatBytes, PicksSensibleUnits) {
  EXPECT_NE(format_bytes(512.0).find(" B"), std::string::npos);
  EXPECT_NE(format_bytes(2048.0).find("KiB"), std::string::npos);
  EXPECT_NE(format_bytes(3.0 * 1024 * 1024).find("MiB"), std::string::npos);
  EXPECT_NE(format_bytes(5.0 * 1024 * 1024 * 1024).find("GiB"),
            std::string::npos);
}

TEST(MemoryTracker, TracksCurrentAndPeak) {
  MemoryTracker mt;
  mt.add("geometry", 1000);
  mt.add("state", 500);
  EXPECT_EQ(mt.total_bytes(), 1500u);
  EXPECT_EQ(mt.peak_bytes(), 1500u);
  mt.release("state", 500);
  EXPECT_EQ(mt.total_bytes(), 1000u);
  EXPECT_EQ(mt.peak_bytes(), 1500u);
  EXPECT_EQ(mt.bytes("geometry"), 1000u);
}

TEST(MemoryTracker, ReleaseClampsAtZero) {
  MemoryTracker mt;
  mt.add("x", 100);
  mt.release("x", 1000);
  EXPECT_EQ(mt.bytes("x"), 0u);
  EXPECT_EQ(mt.total_bytes(), 0u);
}

TEST(Rng, IsDeterministicForFixedSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.normal(), b.normal());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i)
    if (a.normal() != b.normal()) any_diff = true;
  EXPECT_TRUE(any_diff);
}

TEST(Rng, NormalMomentsAreSane) {
  Rng rng(7);
  const auto v = rng.normal_vector(20000);
  double mean = 0.0, var = 0.0;
  for (double x : v) mean += x;
  mean /= static_cast<double>(v.size());
  for (double x : v) var += (x - mean) * (x - mean);
  var /= static_cast<double>(v.size());
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(WriteCsv, RoundTripsColumns) {
  const std::string path = "/tmp/tsunami_test_util.csv";
  write_csv(path, {"t", "v"}, {{0.0, 1.0, 2.0}, {10.0, 20.0, 30.0}});
  std::ifstream f(path);
  std::string header;
  std::getline(f, header);
  EXPECT_EQ(header, "t,v");
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "0,10");
}

TEST(WriteCsv, RejectsMismatchedColumns) {
  EXPECT_THROW(write_csv("/tmp/x.csv", {"a"}, {{1.0}, {2.0}}),
               std::invalid_argument);
}

}  // namespace
}  // namespace tsunami
