// Tests for the 1-D block partitioner and the parallel loops built on it.

#include <gtest/gtest.h>

#include "parallel/parallel_for.hpp"
#include "parallel/partition.hpp"

namespace tsunami {
namespace {

TEST(Partition1D, CoversRangeWithoutOverlap) {
  for (std::size_t n : {1u, 7u, 64u, 101u}) {
    for (std::size_t p : {1u, 2u, 3u, 8u}) {
      if (p > n) continue;
      const auto parts = partition_1d(n, p);
      ASSERT_EQ(parts.size(), p);
      std::size_t covered = 0;
      for (std::size_t r = 0; r < p; ++r) {
        EXPECT_EQ(parts[r].begin, covered);
        covered = parts[r].end;
      }
      EXPECT_EQ(covered, n);
    }
  }
}

TEST(Partition1D, SizesDifferByAtMostOne) {
  const auto parts = partition_1d(103, 8);
  std::size_t lo = 1000, hi = 0;
  for (const auto& r : parts) {
    lo = std::min(lo, r.size());
    hi = std::max(hi, r.size());
  }
  EXPECT_LE(hi - lo, 1u);
}

TEST(Partition1D, BlockRangeMatchesFullPartition) {
  const std::size_t n = 97, p = 5;
  const auto parts = partition_1d(n, p);
  for (std::size_t r = 0; r < p; ++r) {
    const Range br = block_range(n, p, r);
    EXPECT_EQ(br.begin, parts[r].begin);
    EXPECT_EQ(br.end, parts[r].end);
  }
}

TEST(Partition1D, ThrowsOnZeroParts) {
  EXPECT_THROW(partition_1d(10, 0), std::invalid_argument);
  EXPECT_THROW((void)block_range(10, 3, 3), std::out_of_range);
}

TEST(ParallelFor, VisitsEveryIndexOnce) {
  std::vector<int> hits(1000, 0);
  parallel_for(hits.size(), [&](std::size_t i) { hits[i] += 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelReduceSum, MatchesSerialSum) {
  const std::size_t n = 100000;
  const double s =
      parallel_reduce_sum(n, [](std::size_t i) { return static_cast<double>(i); });
  EXPECT_DOUBLE_EQ(s, static_cast<double>(n) * (n - 1) / 2.0);
}

}  // namespace
}  // namespace tsunami
