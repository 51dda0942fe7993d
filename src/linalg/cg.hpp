#pragma once

// Matrix-free (preconditioned) conjugate gradients.
//
// Two roles, both from the paper:
//  1. The SoA baseline (SecIV): prior-preconditioned CG on the full Hessian
//     H = F* Gn^-1 F + Gp^-1, where every operator application costs a
//     forward/adjoint PDE pair. bench_paper's SecVII-C section measures this
//     against the offline-online framework.
//  2. Generic iterative solves in tests.

#include <functional>
#include <span>
#include <vector>

namespace tsunami {

/// Linear operator as a function: y = A x.
using LinearOp =
    std::function<void(std::span<const double>, std::span<double>)>;

struct CgResult {
  std::size_t iterations = 0;
  double residual_norm = 0.0;   ///< final ||b - A x||
  double initial_residual = 0.0;
  bool converged = false;
  std::size_t operator_applications = 0;  ///< # of A-applications performed
};

struct CgOptions {
  std::size_t max_iterations = 1000;
  double relative_tolerance = 1e-10;
  double absolute_tolerance = 0.0;
};

/// Solve A x = b with CG. `x` is both the initial guess and the solution.
CgResult conjugate_gradient(const LinearOp& a, std::span<const double> b,
                            std::span<double> x, const CgOptions& opts = {});

/// Preconditioned CG: `precond` applies an SPD approximation of A^{-1}.
CgResult preconditioned_conjugate_gradient(const LinearOp& a,
                                           const LinearOp& precond,
                                           std::span<const double> b,
                                           std::span<double> x,
                                           const CgOptions& opts = {});

}  // namespace tsunami
