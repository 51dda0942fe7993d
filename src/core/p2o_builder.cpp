#include "core/p2o_builder.hpp"

#include <utility>

#include "parallel/parallel_for.hpp"

namespace tsunami {

P2oMap build_p2o_map(const AcousticGravityModel& model,
                     const ObservationOperator& obs, const TimeGrid& grid,
                     TimerRegistry* timers) {
  P2oMap map;
  map.nrows = obs.num_outputs();
  map.ncols = model.source_map().parameter_dim();
  map.nt = grid.num_intervals;
  std::vector<double> blocks(map.nt * map.nrows * map.ncols, 0.0);

  // One adjoint propagation per observation row fills row s of every block
  // F_k; the solves share nothing but the const model.
  parallel_for(map.nrows, [&](std::size_t s) {
    const Matrix rows = adjoint_p2o_rows(model, obs, s, grid, timers);
    for (std::size_t k = 0; k < map.nt; ++k) {
      const auto src = rows.row(k);
      double* dst = blocks.data() + (k * map.nrows + s) * map.ncols;
      std::copy(src.begin(), src.end(), dst);
    }
  });
  map.toeplitz = std::make_unique<BlockToeplitz>(map.nrows, map.ncols, map.nt,
                                                 std::move(blocks));
  return map;
}

}  // namespace tsunami
