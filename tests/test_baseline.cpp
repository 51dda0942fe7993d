// Tests for the SoA baseline (prior-preconditioned matrix-free CG with PDE
// solves per Hessian matvec): it must agree with the offline-online
// framework's exact MAP point, while costing PDE solves per iteration —
// the comparison at the heart of the paper's speedup claims.

#include <gtest/gtest.h>

#include <cmath>

#include "core/baseline_cg.hpp"
#include "core/data_space_hessian.hpp"
#include "core/p2o_builder.hpp"
#include "core/posterior.hpp"
#include "linalg/blas.hpp"
#include "util/rng.hpp"

namespace tsunami {
namespace {

struct BaselineProblem {
  BaselineProblem()
      : bathy(flat_basin(1500.0, 30e3, 30e3)),
        mesh(bathy, 2, 2, 1),
        model(mesh, 1) {
    obs = std::make_unique<ObservationOperator>(
        ObservationOperator::seafloor_sensors(model,
                                              {{8e3, 9e3}, {21e3, 22e3}}));
    grid.num_intervals = 3;
    grid.substeps = 3;
    grid.dt = model.cfl_timestep(0.4);

    MaternPriorConfig pcfg;
    pcfg.sigma = 0.3;
    pcfg.correlation_length = 10e3;
    prior = std::make_unique<MaternPrior>(3, 3, 15e3, 15e3, pcfg);

    // Physically scaled noisy data from a prior-distributed truth (see
    // test_posterior.cpp for the conditioning rationale).
    Rng rng(99);
    const std::size_t nm = model.source_map().parameter_dim();
    std::vector<double> m_true(nm * grid.num_intervals);
    for (std::size_t t = 0; t < grid.num_intervals; ++t) {
      const auto block = prior->sample(rng);
      std::copy(block.begin(), block.end(),
                m_true.begin() + static_cast<std::ptrdiff_t>(t * nm));
    }
    d_obs.resize(obs->num_outputs() * grid.num_intervals);
    forward_p2o_apply(model, *obs, grid, m_true, std::span<double>(d_obs));
    noise = relative_noise(d_obs, 0.05);
    for (auto& v : d_obs) v += noise.sigma * rng.normal();
  }

  Bathymetry bathy;
  HexMesh mesh;
  AcousticGravityModel model;
  std::unique_ptr<ObservationOperator> obs;
  TimeGrid grid;
  std::unique_ptr<MaternPrior> prior;
  NoiseModel noise;
  std::vector<double> d_obs;
};

TEST(BaselineCg, ConvergesAndCountsPdeSolves) {
  BaselineProblem bp;
  const auto& d_obs = bp.d_obs;

  BaselineOptions opts;
  opts.max_iterations = 150;
  opts.relative_tolerance = 1e-9;
  const auto result =
      baseline_cg_solve(bp.model, *bp.obs, bp.grid, *bp.prior, bp.noise,
                        d_obs, opts);
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.cg_iterations, 0u);
  // Each iteration costs a forward+adjoint pair; +1 adjoint for the RHS and
  // +2 for the initial residual's Hessian application.
  EXPECT_GE(result.pde_solves, 2 * result.cg_iterations + 1);
  EXPECT_GT(result.seconds, 0.0);
}

TEST(BaselineCg, AgreesWithOfflineOnlineFramework) {
  BaselineProblem bp;
  // Offline-online (exact) side.
  const P2oMap map = build_p2o_map(bp.model, *bp.obs, bp.grid);
  const DataSpaceHessian hess(map, *bp.prior, bp.noise);
  const Posterior posterior(*map.toeplitz, *bp.prior, hess);

  const auto& d_obs = bp.d_obs;

  // m_map = G* K^{-1} d: the Hessian solve, then the G* lift.
  std::vector<double> kinv_d(d_obs.size());
  hess.solve(d_obs, std::span<double>(kinv_d));
  std::vector<double> m_exact(posterior.parameter_dim());
  posterior.apply_gstar(kinv_d, std::span<double>(m_exact));

  BaselineOptions opts;
  opts.max_iterations = 300;
  opts.relative_tolerance = 1e-11;
  const auto result = baseline_cg_solve(bp.model, *bp.obs, bp.grid, *bp.prior,
                                        bp.noise, d_obs, opts);
  ASSERT_TRUE(result.converged);

  const double scale = amax(m_exact) + 1e-30;
  for (std::size_t i = 0; i < m_exact.size(); ++i)
    EXPECT_NEAR(result.m_map[i], m_exact[i], 1e-5 * scale) << "param " << i;
}

TEST(BaselineCg, MorePdeSolvesThanPhase1) {
  // The paper's ~810x reduction in PDE solves: Phase 1 needs Nd+Nq solves
  // total; the baseline needs 2 per CG iteration for EVERY event. Even at
  // tiny scale the baseline must use strictly more solves than sensors.
  BaselineProblem bp;
  const auto& d_obs = bp.d_obs;
  const auto result = baseline_cg_solve(bp.model, *bp.obs, bp.grid, *bp.prior,
                                        bp.noise, d_obs,
                                        {.max_iterations = 100,
                                         .relative_tolerance = 1e-9});
  EXPECT_GT(result.pde_solves, bp.obs->num_outputs());
}

}  // namespace
}  // namespace tsunami
