// Tests for the chunk grid every parallel loop is cut into (block_range) and
// the parallel loops built on it.

#include <gtest/gtest.h>

#include <algorithm>

#include "parallel/parallel_for.hpp"

namespace tsunami {
namespace {

TEST(BlockRange, ChunksCoverRangeWithoutOverlap) {
  for (std::size_t n : {0u, 1u, 7u, 64u, 101u}) {
    for (std::size_t p : {1u, 2u, 3u, 8u}) {
      std::size_t covered = 0;
      for (std::size_t r = 0; r < p; ++r) {
        const Range c = block_range(n, p, r);
        EXPECT_EQ(c.begin, covered) << "n " << n << " parts " << p;
        covered = c.end;
      }
      EXPECT_EQ(covered, n) << "n " << n << " parts " << p;
    }
  }
}

TEST(BlockRange, SizesDifferByAtMostOne) {
  std::size_t lo = 1000, hi = 0;
  for (std::size_t r = 0; r < 8; ++r) {
    const Range c = block_range(103, 8, r);
    lo = std::min(lo, c.size());
    hi = std::max(hi, c.size());
  }
  EXPECT_LE(hi - lo, 1u);
}

TEST(BlockRange, ThrowsOnRankPastParts) {
  EXPECT_THROW((void)block_range(10, 3, 3), std::out_of_range);
  EXPECT_THROW((void)block_range(10, 0, 0), std::out_of_range);
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
