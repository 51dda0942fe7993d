#pragma once

// Contiguous 1-D block partitions. block_range cuts the chunk grid of every
// parallel loop (parallel/parallel_for.hpp); partition_1d materializes the
// whole decomposition at once.

#include <cstddef>
#include <vector>

namespace tsunami {

/// Half-open index range [begin, end).
struct Range {
  std::size_t begin = 0;
  std::size_t end = 0;
  [[nodiscard]] std::size_t size() const { return end - begin; }
};

/// Split [0, n) into `parts` contiguous blocks whose sizes differ by at most
/// one (remainder distributed to the leading blocks).
[[nodiscard]] std::vector<Range> partition_1d(std::size_t n, std::size_t parts);

/// The block owned by `rank` in the partition_1d decomposition.
[[nodiscard]] Range block_range(std::size_t n, std::size_t parts,
                                std::size_t rank);

}  // namespace tsunami
