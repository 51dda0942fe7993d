#include "core/p2o_builder.hpp"

#include "parallel/parallel_for.hpp"

namespace tsunami {

P2oMap build_p2o_map(const AcousticGravityModel& model,
                     const ObservationOperator& obs, const TimeGrid& grid,
                     TimerRegistry* timers) {
  P2oMap map;
  map.nrows = obs.num_outputs();
  map.ncols = model.source_map().parameter_dim();
  map.nt = grid.num_intervals;
  map.blocks.assign(map.nt * map.nrows * map.ncols, 0.0);

  // One adjoint propagation per observation row fills row s of every block
  // F_k; the solves share nothing but the const model.
  parallel_for(map.nrows, [&](std::size_t s) {
    const Matrix rows = adjoint_p2o_rows(model, obs, s, grid, timers);
    for (std::size_t k = 0; k < map.nt; ++k) {
      const auto src = rows.row(k);
      double* dst = map.blocks.data() + (k * map.nrows + s) * map.ncols;
      std::copy(src.begin(), src.end(), dst);
    }
  });
  // Fourier symbol construction: one batched r2c transform pass over every
  // (row, col) entry sequence, with per-thread scratch inside the engine.
  // Cheap next to the adjoint solves above, but worth a timer sample: it is
  // the only non-PDE cost of Phase 1 and shows up in warm-start rebuilds.
  Stopwatch symbol_watch;
  map.toeplitz = std::make_unique<BlockToeplitz>(
      map.nrows, map.ncols, map.nt, std::span<const double>(map.blocks));
  if (timers) timers->add("p2o: FFT symbols", symbol_watch.seconds());
  return map;
}

}  // namespace tsunami
