#include "linalg/blas.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "parallel/parallel_for.hpp"

namespace tsunami {

namespace {
constexpr std::size_t kParallelThreshold = 1 << 14;
}

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  if (x.size() != y.size()) throw std::invalid_argument("axpy: size mismatch");
  const std::size_t n = x.size();
  if (n < kParallelThreshold) {
    for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
  } else {
    double* yp = y.data();
    const double* xp = x.data();
    parallel_for_ranges(n, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) yp[i] += alpha * xp[i];
    });
  }
}

void scal(double alpha, std::span<double> x) {
  const std::size_t n = x.size();
  if (n < kParallelThreshold) {
    for (auto& v : x) v *= alpha;
  } else {
    double* xp = x.data();
    parallel_for_ranges(n, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) xp[i] *= alpha;
    });
  }
}

double dot(std::span<const double> x, std::span<const double> y) {
  if (x.size() != y.size()) throw std::invalid_argument("dot: size mismatch");
  const std::size_t n = x.size();
  if (n < kParallelThreshold) {
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i) s += x[i] * y[i];
    return s;
  }
  const double* xp = x.data();
  const double* yp = y.data();
  return parallel_reduce_sum(n, [&](std::size_t i) { return xp[i] * yp[i]; });
}

double nrm2(std::span<const double> x) { return std::sqrt(dot(x, x)); }

double amax(std::span<const double> x) {
  const std::size_t n = x.size();
  if (n < kParallelThreshold) {
    double m = 0.0;
    for (double v : x) m = std::max(m, std::abs(v));
    return m;
  }
  const double* xp = x.data();
  return parallel_reduce_max(n, [&](std::size_t i) { return std::abs(xp[i]); });
}

void gemv(const Matrix& a, std::span<const double> x, std::span<double> y) {
  if (x.size() != a.cols() || y.size() != a.rows())
    throw std::invalid_argument("gemv: size mismatch");
  const std::size_t rows = a.rows(), cols = a.cols();
  const double* ap = a.data();
  const double* xp = x.data();
  double* yp = y.data();
  parallel_for_min(rows, 64, [&](std::size_t i) {
    const double* row = ap + i * cols;
    double s = 0.0;
    for (std::size_t j = 0; j < cols; ++j) s += row[j] * xp[j];
    yp[i] = s;
  });
}

void gemv_t(const Matrix& a, std::span<const double> x, std::span<double> y) {
  if (x.size() != a.rows() || y.size() != a.cols())
    throw std::invalid_argument("gemv_t: size mismatch");
  const std::size_t rows = a.rows(), cols = a.cols();
  const double* ap = a.data();
  const double* xp = x.data();
  double* yp = y.data();
  // Column-result accumulation: parallelize over output column panels to
  // avoid write conflicts while keeping unit-stride reads of A's rows. Each
  // column's i-sweep runs to completion inside one chunk, so the result is
  // independent of scheduling and worker count.
  parallel_for_ranges(cols, [&](std::size_t j0, std::size_t j1) {
    for (std::size_t j = j0; j < j1; ++j) yp[j] = 0.0;
    for (std::size_t i = 0; i < rows; ++i) {
      const double* row = ap + i * cols;
      const double xi = xp[i];
      for (std::size_t j = j0; j < j1; ++j) yp[j] += xi * row[j];
    }
  });
}

void gemm(const Matrix& a, const Matrix& b, Matrix& c) {
  if (a.cols() != b.rows() || c.rows() != a.rows() || c.cols() != b.cols())
    throw std::invalid_argument("gemm: size mismatch");
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  c.fill(0.0);
  const double* ap = a.data();
  const double* bp = b.data();
  double* cp = c.data();
  parallel_for_min(m, 16, [&](std::size_t i) {
    double* crow = cp + i * n;
    const double* arow = ap + i * k;
    for (std::size_t l = 0; l < k; ++l) {
      const double av = arow[l];
      const double* brow = bp + l * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  });
}

void gemm_tn(const Matrix& a, const Matrix& b, Matrix& c) {
  if (a.rows() != b.rows() || c.rows() != a.cols() || c.cols() != b.cols())
    throw std::invalid_argument("gemm_tn: size mismatch");
  const std::size_t m = a.cols(), k = a.rows(), n = b.cols();
  c.fill(0.0);
  const double* ap = a.data();
  const double* bp = b.data();
  double* cp = c.data();
  parallel_for_min(m, 16, [&](std::size_t i) {
    double* crow = cp + i * n;
    for (std::size_t l = 0; l < k; ++l) {
      const double av = ap[l * m + i];
      const double* brow = bp + l * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  });
}

namespace {

constexpr std::size_t kAccTile = 1024;  // 8 KB: half of a typical L1d

/// Rows per pass of accumulate_rows: each output column is loaded and
/// stored once per group of rows instead of once per row. forward_solve_range
/// groups the same 8 rows (dense_cholesky.cpp), and one tick of an
/// 8-channel network is one whole group. The group size moves no bits: the
/// adds per column stay j-ascending whatever it is.
constexpr std::size_t kRows = 8;

/// m[c0:c1] += z[0] rows[0][c0:c1] + ... + z[kRows-1] rows[kRows-1][c0:c1]
/// (row r at rows + r * stride) — the group kernel of accumulate_rows. Each
/// output column is loaded once, takes its kRows multiply-adds in r order,
/// and is stored once: per column the same operations in the same order as
/// kRows calls of accumulate_row_tile, at one output load and store instead
/// of kRows.
TSUNAMI_HOT_PATH inline void accumulate_group_tile(const double* rows,
                                                   std::size_t stride,
                                                   const double* z, double* m,
                                                   std::size_t c0,
                                                   std::size_t c1) {
  const double* row[kRows];
  for (std::size_t r = 0; r < kRows; ++r) row[r] = rows + r * stride;
  for (std::size_t c = c0; c < c1; ++c) {
    double acc = m[c];
    for (std::size_t r = 0; r < kRows; ++r) acc += z[r] * row[r][c];
    m[c] = acc;
  }
}

/// m[c0:c1] += zj * row[c0:c1]: one row, for the rows after the last
/// whole group.
TSUNAMI_HOT_PATH inline void accumulate_row_tile(const double* row, double zj,
                                                 double* m, std::size_t c0,
                                                 std::size_t c1) {
  for (std::size_t c = c0; c < c1; ++c) m[c] += zj * row[c];
}

}  // namespace

TSUNAMI_HOT_PATH void accumulate_rows(const double* rows, std::size_t nrows,
                                      std::size_t ncols, const double* z,
                                      double* out) {
  for (std::size_t c0 = 0; c0 < ncols; c0 += kAccTile) {
    const std::size_t c1 = std::min(c0 + kAccTile, ncols);
    std::size_t j = 0;
    for (; j + kRows <= nrows; j += kRows)
      accumulate_group_tile(rows + j * ncols, ncols, z + j, out, c0, c1);
    for (; j < nrows; ++j)
      accumulate_row_tile(rows + j * ncols, z[j], out, c0, c1);
  }
}

}  // namespace tsunami
