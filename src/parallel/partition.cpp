#include "parallel/partition.hpp"

#include <stdexcept>

namespace tsunami {

std::vector<Range> partition_1d(std::size_t n, std::size_t parts) {
  if (parts == 0) throw std::invalid_argument("partition_1d: parts == 0");
  std::vector<Range> out(parts);
  const std::size_t base = n / parts;
  const std::size_t rem = n % parts;
  std::size_t cursor = 0;
  for (std::size_t r = 0; r < parts; ++r) {
    const std::size_t len = base + (r < rem ? 1 : 0);
    out[r] = Range{cursor, cursor + len};
    cursor += len;
  }
  return out;
}

Range block_range(std::size_t n, std::size_t parts, std::size_t rank) {
  if (rank >= parts) throw std::out_of_range("block_range: rank >= parts");
  const std::size_t base = n / parts;
  const std::size_t rem = n % parts;
  const std::size_t begin =
      rank * base + (rank < rem ? rank : rem);
  const std::size_t len = base + (rank < rem ? 1 : 0);
  return Range{begin, begin + len};
}

}  // namespace tsunami
