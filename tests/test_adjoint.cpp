// Integration tests of the discrete p2o map: the block Toeplitz structure
// (time-shift invariance), the exactness of the adjoint-built map against
// direct forward propagation, and forward/adjoint inner-product consistency.
// These are the properties the whole real-time framework rests on.

#include <gtest/gtest.h>

#include <cmath>

#include "core/p2o_builder.hpp"
#include "linalg/blas.hpp"
#include "util/rng.hpp"
#include "wave/adjoint.hpp"

namespace tsunami {
namespace {

struct P2oSetup {
  P2oSetup() : bathy(BathymetryConfig{}), mesh(bathy, 3, 3, 2), model(mesh, 2) {
    obs = std::make_unique<ObservationOperator>(
        ObservationOperator::seafloor_sensors(
            model, sensor_grid(3, 20e3, 100e3, 40e3, 210e3)));
    grid.num_intervals = 6;
    grid.substeps = 4;
    grid.dt = model.cfl_timestep(0.4);
    nm = model.source_map().parameter_dim();
    nd = obs->num_outputs();
  }

  Bathymetry bathy;
  HexMesh mesh;
  AcousticGravityModel model;
  std::unique_ptr<ObservationOperator> obs;
  TimeGrid grid;
  std::size_t nm = 0, nd = 0;
};

TEST(TimeGrid, ObservationTimesAreIntervalEnds) {
  TimeGrid g{.num_intervals = 4, .substeps = 5, .dt = 0.2};
  EXPECT_DOUBLE_EQ(g.interval(), 1.0);
  EXPECT_DOUBLE_EQ(g.total_time(), 4.0);
  const auto t = g.observation_times();
  ASSERT_EQ(t.size(), 4u);
  EXPECT_DOUBLE_EQ(t[0], 1.0);
  EXPECT_DOUBLE_EQ(t[3], 4.0);
}

TEST(ForwardP2o, LinearInParameters) {
  P2oSetup s;
  Rng rng(1);
  const auto m1 = rng.normal_vector(s.nm * s.grid.num_intervals);
  const auto m2 = rng.normal_vector(s.nm * s.grid.num_intervals);
  std::vector<double> combo(m1.size());
  for (std::size_t i = 0; i < m1.size(); ++i) combo[i] = 2.0 * m1[i] - m2[i];

  std::vector<double> d1(s.nd * s.grid.num_intervals),
      d2(s.nd * s.grid.num_intervals), dc(s.nd * s.grid.num_intervals);
  forward_p2o_apply(s.model, *s.obs, s.grid, m1, std::span<double>(d1));
  forward_p2o_apply(s.model, *s.obs, s.grid, m2, std::span<double>(d2));
  forward_p2o_apply(s.model, *s.obs, s.grid, combo, std::span<double>(dc));
  for (std::size_t i = 0; i < dc.size(); ++i)
    EXPECT_NEAR(dc[i], 2.0 * d1[i] - d2[i],
                1e-10 * (std::abs(dc[i]) + 1.0));
}

TEST(ForwardP2o, CausalityZeroBeforeSource) {
  // A source acting only in the last interval cannot affect earlier data.
  P2oSetup s;
  Rng rng(2);
  std::vector<double> m(s.nm * s.grid.num_intervals, 0.0);
  for (std::size_t r = 0; r < s.nm; ++r)
    m[(s.grid.num_intervals - 1) * s.nm + r] = rng.normal();
  std::vector<double> d(s.nd * s.grid.num_intervals);
  forward_p2o_apply(s.model, *s.obs, s.grid, m, std::span<double>(d));
  for (std::size_t i = 0; i + 1 < s.grid.num_intervals; ++i)
    for (std::size_t j = 0; j < s.nd; ++j)
      EXPECT_DOUBLE_EQ(d[i * s.nd + j], 0.0);
}

TEST(ForwardP2o, TimeShiftInvariance) {
  // The response to a source in interval k is the k-shifted response to the
  // same source in interval 0 — the block Toeplitz property (SecV-A).
  P2oSetup s;
  Rng rng(3);
  const auto spatial = rng.normal_vector(s.nm);
  const std::size_t nt = s.grid.num_intervals;

  std::vector<double> m0(s.nm * nt, 0.0), m2(s.nm * nt, 0.0);
  std::copy(spatial.begin(), spatial.end(), m0.begin());
  std::copy(spatial.begin(), spatial.end(),
            m2.begin() + static_cast<std::ptrdiff_t>(2 * s.nm));

  std::vector<double> d0(s.nd * nt), d2(s.nd * nt);
  forward_p2o_apply(s.model, *s.obs, s.grid, m0, std::span<double>(d0));
  forward_p2o_apply(s.model, *s.obs, s.grid, m2, std::span<double>(d2));

  double scale = amax(d0) + 1e-30;
  for (std::size_t i = 0; i + 2 < nt; ++i)
    for (std::size_t j = 0; j < s.nd; ++j)
      EXPECT_NEAR(d2[(i + 2) * s.nd + j], d0[i * s.nd + j], 1e-11 * scale);
}

TEST(BuildP2oMap, EqualsPerRowAdjointSolvesBitwise) {
  // The concurrent outer loop must not change a single bit: each adjoint
  // solve is independent and deterministic and writes its own rows, so the
  // map equals one serial adjoint_p2o_rows solve per row, entry for entry.
  P2oSetup s;
  TimerRegistry timers;
  const P2oMap map = build_p2o_map(s.model, *s.obs, s.grid, &timers);
  const std::span<const double> blocks = map.toeplitz->blocks();
  ASSERT_EQ(blocks.size(), s.grid.num_intervals * s.nd * s.nm);
  for (std::size_t row = 0; row < s.nd; ++row) {
    const Matrix oracle = adjoint_p2o_rows(s.model, *s.obs, row, s.grid);
    for (std::size_t k = 0; k < s.grid.num_intervals; ++k)
      for (std::size_t r = 0; r < s.nm; ++r)
        ASSERT_EQ(blocks[(k * s.nd + row) * s.nm + r], oracle(k, r))
            << "row " << row << " block " << k << " col " << r;
  }
  // Every solve records its own samples, from whichever worker ran it.
  EXPECT_EQ(timers.count("Setup"), static_cast<long>(s.nd));
  EXPECT_EQ(timers.count("Adjoint p2o"), static_cast<long>(s.nd));
}

TEST(AdjointP2o, RowsReproduceForwardMap) {
  // Build F from one adjoint solve per sensor, then check F m == forward(m)
  // to near machine precision — the discrete adjoint is exact.
  P2oSetup s;
  const P2oMap map = build_p2o_map(s.model, *s.obs, s.grid);
  Rng rng(4);
  const auto m = rng.normal_vector(s.nm * s.grid.num_intervals);

  std::vector<double> d_forward(s.nd * s.grid.num_intervals);
  forward_p2o_apply(s.model, *s.obs, s.grid, m, std::span<double>(d_forward));

  std::vector<double> d_toeplitz(s.nd * s.grid.num_intervals);
  map.toeplitz->apply(m, std::span<double>(d_toeplitz));

  const double scale = amax(d_forward) + 1e-30;
  for (std::size_t i = 0; i < d_forward.size(); ++i)
    EXPECT_NEAR(d_toeplitz[i], d_forward[i], 1e-9 * scale) << "entry " << i;
}

TEST(AdjointP2o, ForwardAdjointInnerProductIdentity) {
  // <F m, d> == <m, F^T d> with F applied by forward propagation and F^T by
  // the reverse-sweep adjoint.
  P2oSetup s;
  Rng rng(5);
  const auto m = rng.normal_vector(s.nm * s.grid.num_intervals);
  const auto d = rng.normal_vector(s.nd * s.grid.num_intervals);

  std::vector<double> fm(s.nd * s.grid.num_intervals);
  forward_p2o_apply(s.model, *s.obs, s.grid, m, std::span<double>(fm));
  std::vector<double> ftd(s.nm * s.grid.num_intervals);
  adjoint_p2o_transpose_apply(s.model, *s.obs, s.grid, d,
                              std::span<double>(ftd));

  const double lhs = dot(fm, d);
  const double rhs = dot(m, ftd);
  EXPECT_NEAR(lhs, rhs, 1e-9 * std::abs(lhs) + 1e-12);
}

TEST(AdjointP2o, TransposeApplyMatchesToeplitzTranspose) {
  P2oSetup s;
  const P2oMap map = build_p2o_map(s.model, *s.obs, s.grid);
  Rng rng(6);
  const auto d = rng.normal_vector(s.nd * s.grid.num_intervals);

  std::vector<double> ft_pde(s.nm * s.grid.num_intervals);
  adjoint_p2o_transpose_apply(s.model, *s.obs, s.grid, d,
                              std::span<double>(ft_pde));
  std::vector<double> ft_fft(s.nm * s.grid.num_intervals);
  map.toeplitz->apply_transpose(d, std::span<double>(ft_fft));

  const double scale = amax(ft_pde) + 1e-30;
  for (std::size_t i = 0; i < ft_pde.size(); ++i)
    EXPECT_NEAR(ft_fft[i], ft_pde[i], 1e-9 * scale);
}

TEST(AdjointP2o, FirstBlockCapturesImmediateResponse) {
  // A sensor collocated with a strong source must register a nonzero
  // same-interval response (F_1 != 0) — the diagonal blocks matter.
  P2oSetup s;
  const P2oMap map = build_p2o_map(s.model, *s.obs, s.grid);
  double first_block_norm = 0.0;
  for (std::size_t i = 0; i < s.nd * s.nm; ++i)
    first_block_norm =
        std::max(first_block_norm, std::abs(map.toeplitz->blocks()[i]));
  EXPECT_GT(first_block_norm, 0.0);
}

TEST(AdjointP2o, TimersRecordSetupAndSolve) {
  P2oSetup s;
  TimerRegistry timers;
  (void)adjoint_p2o_rows(s.model, *s.obs, 0, s.grid, &timers);
  EXPECT_EQ(timers.count("Setup"), 1);
  EXPECT_EQ(timers.count("Adjoint p2o"), 1);
  EXPECT_GT(timers.total("Adjoint p2o"), 0.0);
}

TEST(BuildP2oMap, DimensionsMatchProblem) {
  P2oSetup s;
  const P2oMap map = build_p2o_map(s.model, *s.obs, s.grid);
  EXPECT_EQ(map.nrows, s.nd);
  EXPECT_EQ(map.ncols, s.nm);
  EXPECT_EQ(map.nt, s.grid.num_intervals);
  EXPECT_EQ(map.toeplitz->input_dim(), s.nm * s.grid.num_intervals);
  EXPECT_EQ(map.toeplitz->output_dim(), s.nd * s.grid.num_intervals);
}

}  // namespace
}  // namespace tsunami
