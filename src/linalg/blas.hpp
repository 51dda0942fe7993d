#pragma once

// BLAS-like kernels (pool-parallel where profitable). These stand in for
// the cuBLAS calls in the paper's FFTMatvec/inference codes; the algorithms
// built on top only assume the standard contracts.

#include <cstddef>
#include <span>

#include "linalg/dense.hpp"
#include "util/hot_path.hpp"

namespace tsunami {

/// y += alpha * x
void axpy(double alpha, std::span<const double> x, std::span<double> y);

/// x *= alpha
void scal(double alpha, std::span<double> x);

/// Dot product (sequential accumulation order for reproducibility at the
/// sizes used in solvers; parallel reduction for large n).
[[nodiscard]] double dot(std::span<const double> x, std::span<const double> y);

/// Euclidean norm.
[[nodiscard]] double nrm2(std::span<const double> x);

/// Max-abs (infinity) norm.
[[nodiscard]] double amax(std::span<const double> x);

/// y = A x (row-major GEMV).
void gemv(const Matrix& a, std::span<const double> x, std::span<double> y);

/// y = A^T x.
void gemv_t(const Matrix& a, std::span<const double> x, std::span<double> y);

/// C = A B (blocked, pool-parallel over row panels).
void gemm(const Matrix& a, const Matrix& b, Matrix& c);

/// C = A^T B.
void gemm_tn(const Matrix& a, const Matrix& b, Matrix& c);

/// out[0:ncols) += rows^T z[0:nrows) over a row-major block of nrows rows
/// (row stride ncols) — the per-tick forecast accumulation, also the offline
/// R products. Column-tiled so the output tile stays in L1 across the row
/// groups; the slab rows are read exactly once. Per output column the adds
/// run j-ascending: the groups in order, then the tail rows. That order is
/// the contract: the bits are those of the row-at-a-time loop, so a sweep
/// split into ranges (a tick at a time, or one call over many ticks as
/// rebuild_projections makes) gives the same bits.
TSUNAMI_HOT_PATH void accumulate_rows(const double* rows, std::size_t nrows,
                                      std::size_t ncols, const double* z,
                                      double* out);

}  // namespace tsunami
