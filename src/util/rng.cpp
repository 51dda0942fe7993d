#include "util/rng.hpp"

namespace tsunami {

std::vector<double> Rng::normal_vector(std::size_t n) {
  std::vector<double> v(n);
  for (auto& x : v) x = normal();
  return v;
}

}  // namespace tsunami
