#pragma once

// The state-of-the-art baseline the paper measures itself against (SecIV):
// prior-preconditioned matrix-free conjugate gradients on the full-space
// normal equations
//   (F^T Gn^{-1} F + Gp^{-1}) m_map = F^T Gn^{-1} d_obs,
// where EVERY Hessian application costs one forward + one adjoint wave
// propagation. On the paper's problem this is 50 years of compute; at our
// reduced scale it is merely seconds — bench_paper's SecVII-C section runs
// both sides on the SAME problem and reports the measured ratio (the paper's
// 10^10 factor).

#include <cstddef>
#include <span>
#include <vector>

#include "prior/matern_prior.hpp"
#include "core/data_space_hessian.hpp"
#include "wave/adjoint.hpp"
#include "wave/observation.hpp"

namespace tsunami {

struct BaselineResult {
  std::vector<double> m_map;
  std::size_t cg_iterations = 0;
  std::size_t pde_solves = 0;  ///< forward + adjoint propagations performed
  double seconds = 0.0;
  double relative_residual = 0.0;
  bool converged = false;
};

struct BaselineOptions {
  std::size_t max_iterations = 200;
  double relative_tolerance = 1e-8;
};

/// Solve the MAP system with the conventional CG pipeline.
[[nodiscard]] BaselineResult baseline_cg_solve(
    const AcousticGravityModel& model, const ObservationOperator& obs,
    const TimeGrid& grid, const MaternPrior& prior, const NoiseModel& noise,
    std::span<const double> d_obs, const BaselineOptions& opts = {});

}  // namespace tsunami
