#pragma once

// Symmetric eigensolvers for spectrum studies.
//
// SecIV of the paper argues the prior-preconditioned data-misfit Hessian is
// NOT low rank for seafloor-pressure inversion (effective rank ~ data
// dimension), which is what rules out low-rank SoA methods. bench_paper's
// SecIV section reproduces that diagnosis on the data-space Hessian. A cyclic
// Jacobi eigensolver is exact and robust at the dense sizes we need (<= a
// few thousand); a Lanczos path covers matrix-free operators.

#include <vector>

#include "linalg/cg.hpp"
#include "linalg/dense.hpp"

namespace tsunami {

/// All eigenvalues of a symmetric matrix via cyclic Jacobi rotations.
/// Returns eigenvalues sorted descending. `a` must be symmetric.
[[nodiscard]] std::vector<double> symmetric_eigenvalues(const Matrix& a,
                                                        double tol = 1e-12,
                                                        int max_sweeps = 50);

/// Lanczos (no reorthogonalization beyond full Gram-Schmidt against stored
/// basis) estimating the `k` largest eigenvalues of a symmetric operator of
/// dimension n. Suitable for quick spectral summaries of matrix-free maps.
[[nodiscard]] std::vector<double> lanczos_eigenvalues(const LinearOp& a,
                                                      std::size_t n,
                                                      std::size_t k,
                                                      unsigned seed = 1234);

/// Effective rank: number of eigenvalues >= `threshold` * lambda_max.
[[nodiscard]] std::size_t effective_rank(const std::vector<double>& eigs,
                                         double threshold);

/// Randomized eigensolver (Halko-Martinsson-Tropp) for a symmetric PSD
/// operator: sample a Gaussian test matrix, build an orthonormal range basis
/// with `oversample` extra columns and `power_iterations` subspace
/// iterations, and solve the small projected eigenproblem.
///
/// This is the workhorse of low-rank SoA Bayesian inversion ([17, 18] in the
/// paper): it is efficient exactly when the operator has fast spectral
/// decay. bench_paper's SecIV section uses it to show the paper's point —
/// for the seafloor-pressure p2o Hessian the required rank approaches the
/// data dimension, so the "low-rank" method degenerates to dense cost.
struct RandomizedEigResult {
  std::vector<double> eigenvalues;  ///< descending, size k
  double residual_fraction = 0.0;   ///< ||A - Q(Q^T A Q)Q^T||_F est. / ||A||_F est.
};

[[nodiscard]] RandomizedEigResult randomized_eigenvalues(
    const LinearOp& a, std::size_t n, std::size_t k,
    std::size_t oversample = 10, std::size_t power_iterations = 2,
    unsigned seed = 4321);

}  // namespace tsunami
