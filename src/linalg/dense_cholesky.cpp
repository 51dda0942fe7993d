#include "linalg/dense_cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "parallel/parallel_for.hpp"

namespace tsunami {

namespace {

/// Rows per pass of forward_solve_range: their dot products over the solved
/// prefix run as kRows independent chains sharing each load of b[j]. On the
/// bench network (n = 384, 8-row ticks, one thread of a 4-vCPU x86-64 host)
/// the per-tick solve took 1.6-2.0 us row by row and 0.90-1.16, 0.88-1.15
/// and 0.81-1.05 us in groups of 2, 4 and 8.
constexpr std::size_t kRows = 8;

/// Rows per diagonal block of the right-looking factorization.
constexpr std::size_t kBlock = 64;

/// Shared multi-RHS driver: apply `solve_column` to each column of `b`
/// (parallel over columns, contiguous per-column scratch).
template <typename Solver>
void solve_columns(Matrix& b, const Solver& solve_column) {
  const std::size_t n = b.rows(), m = b.cols();
  parallel_for_min(m, 4, [&](std::size_t c) {
    std::vector<double> col(n);
    for (std::size_t i = 0; i < n; ++i) col[i] = b(i, c);
    solve_column(std::span<double>(col));
    for (std::size_t i = 0; i < n; ++i) b(i, c) = col[i];
  });
}

}  // namespace

DenseCholesky::DenseCholesky(const Matrix& a) : l_(a) {
  if (a.rows() != a.cols())
    throw std::invalid_argument("DenseCholesky: matrix not square");
  const std::size_t n = l_.rows();
  double* lp = l_.data();

  for (std::size_t k0 = 0; k0 < n; k0 += kBlock) {
    const std::size_t k1 = std::min(k0 + kBlock, n);
    // Factor the diagonal block (unblocked).
    for (std::size_t k = k0; k < k1; ++k) {
      double d = lp[k * n + k];
      for (std::size_t j = k0; j < k; ++j) {
        const double v = lp[k * n + j];
        d -= v * v;
      }
      if (d <= 0.0)
        throw std::runtime_error("DenseCholesky: matrix not SPD (pivot <= 0)");
      const double diag = std::sqrt(d);
      lp[k * n + k] = diag;
      for (std::size_t i = k + 1; i < k1; ++i) {
        double s = lp[i * n + k];
        for (std::size_t j = k0; j < k; ++j)
          s -= lp[i * n + j] * lp[k * n + j];
        lp[i * n + k] = s / diag;
      }
    }
    if (k1 == n) break;
    // Panel solve: rows k1..n of columns k0..k1 (L21 = A21 L11^{-T}).
    parallel_for_min(n - k1, 8, [&](std::size_t ii) {
      const std::size_t i = k1 + ii;
      for (std::size_t k = k0; k < k1; ++k) {
        double s = lp[i * n + k];
        for (std::size_t j = k0; j < k; ++j)
          s -= lp[i * n + j] * lp[k * n + j];
        lp[i * n + k] = s / lp[k * n + k];
      }
    });
    // Trailing update: A22 -= L21 L21^T (lower triangle only).
    parallel_for_min(n - k1, 8, [&](std::size_t ii) {
      const std::size_t i = k1 + ii;
      for (std::size_t j = k1; j <= i; ++j) {
        double s = 0.0;
        for (std::size_t k = k0; k < k1; ++k)
          s += lp[i * n + k] * lp[j * n + k];
        lp[i * n + j] -= s;
      }
    });
  }
  // Zero the strict upper triangle so factor() is exactly L.
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) lp[i * n + j] = 0.0;
}

DenseCholesky DenseCholesky::from_factor(Matrix l) {
  if (l.rows() != l.cols())
    throw std::invalid_argument("DenseCholesky::from_factor: not square");
  const std::size_t n = l.rows();
  for (std::size_t i = 0; i < n; ++i) {
    if (!(l(i, i) > 0.0))
      throw std::runtime_error(
          "DenseCholesky::from_factor: nonpositive diagonal (not a Cholesky "
          "factor)");
    for (std::size_t j = i + 1; j < n; ++j) l(i, j) = 0.0;
  }
  DenseCholesky c;
  c.l_ = std::move(l);
  return c;
}

TSUNAMI_HOT_PATH void DenseCholesky::forward_solve_range(
    std::span<double> b, std::size_t begin, std::size_t end) const {
  const std::size_t n = l_.rows();
  if (begin > end || end > n || b.size() < end)
    throw std::invalid_argument("DenseCholesky: bad forward-solve range");
  const double* lp = l_.data();
  // Row i computes s = b[i]; s -= L(i, j) b[j] for j = 0, 1, ..., i - 1;
  // b[i] = s / L(i, i). A group of kRows rows runs its terms over the prefix
  // j < i0 as kRows interleaved chains, then its in-group triangle row by
  // row: every row keeps that exact sequence of operations.
  std::size_t i0 = begin;
  for (; i0 + kRows <= end; i0 += kRows) {
    const double* row[kRows];
    double s[kRows];
    for (std::size_t r = 0; r < kRows; ++r) {
      row[r] = lp + (i0 + r) * n;
      s[r] = b[i0 + r];
    }
    for (std::size_t j = 0; j < i0; ++j) {
      const double bj = b[j];
      for (std::size_t r = 0; r < kRows; ++r) s[r] -= row[r][j] * bj;
    }
    for (std::size_t r = 0; r < kRows; ++r) {
      for (std::size_t j = i0; j < i0 + r; ++j) s[r] -= row[r][j] * b[j];
      b[i0 + r] = s[r] / row[r][i0 + r];
    }
  }
  for (std::size_t i = i0; i < end; ++i) {
    double s = b[i];
    const double* row = lp + i * n;
    for (std::size_t j = 0; j < i; ++j) s -= row[j] * b[j];
    b[i] = s / row[i];
  }
}

void DenseCholesky::forward_solve_in_place(std::span<double> b) const {
  const std::size_t n = l_.rows();
  if (b.size() != n)
    throw std::invalid_argument("DenseCholesky: rhs size mismatch");
  forward_solve_range(b, 0, n);
}

void DenseCholesky::forward_solve_in_place(Matrix& b) const {
  if (b.rows() != l_.rows())
    throw std::invalid_argument("DenseCholesky: rhs rows mismatch");
  solve_columns(b,
                [this](std::span<double> col) { forward_solve_in_place(col); });
}

void DenseCholesky::backward_solve_prefix(std::span<double> b,
                                          std::size_t prefix) const {
  const std::size_t n = l_.rows();
  if (prefix > n || b.size() < prefix)
    throw std::invalid_argument("DenseCholesky: bad backward-solve prefix");
  const double* lp = l_.data();
  for (std::size_t ii = prefix; ii-- > 0;) {
    double s = b[ii];
    for (std::size_t j = ii + 1; j < prefix; ++j) s -= lp[j * n + ii] * b[j];
    b[ii] = s / lp[ii * n + ii];
  }
}

void DenseCholesky::backward_solve_in_place(std::span<double> b) const {
  const std::size_t n = l_.rows();
  if (b.size() != n)
    throw std::invalid_argument("DenseCholesky: rhs size mismatch");
  backward_solve_prefix(b, n);
}

void DenseCholesky::solve_in_place(std::span<double> b) const {
  forward_solve_in_place(b);
  backward_solve_in_place(b);
}

void DenseCholesky::solve_in_place(Matrix& b) const {
  if (b.rows() != l_.rows())
    throw std::invalid_argument("DenseCholesky: rhs rows mismatch");
  solve_columns(b, [this](std::span<double> col) { solve_in_place(col); });
}

TSUNAMI_HOT_PATH void DenseCholesky::rank_update(std::span<double> u) {
  const std::size_t n = l_.rows();
  if (u.size() != n)
    throw std::invalid_argument("DenseCholesky::rank_update: size mismatch");
  double* lp = l_.data();
  // Givens rotations annihilate u against the diagonal of L, column by
  // column: [L u] Q^T = [L' 0] with Q orthogonal, so L' L'^T = L L^T + u u^T.
  for (std::size_t k = 0; k < n; ++k) {
    const double uk = u[k];
    if (uk == 0.0) continue;
    const double lkk = lp[k * n + k];
    const double r = std::hypot(lkk, uk);
    const double c = r / lkk;
    const double s = uk / lkk;
    lp[k * n + k] = r;
    for (std::size_t i = k + 1; i < n; ++i) {
      const double lik = lp[i * n + k];
      lp[i * n + k] = (lik + s * u[i]) / c;
      u[i] = c * u[i] - s * lp[i * n + k];
    }
  }
}

TSUNAMI_HOT_PATH void DenseCholesky::rank_downdate(std::span<double> u) {
  const std::size_t n = l_.rows();
  if (u.size() != n)
    throw std::invalid_argument("DenseCholesky::rank_downdate: size mismatch");
  double* lp = l_.data();
  // Hyperbolic rotations: [L u] H = [L' 0] with H J H^T = J for the
  // signature J = diag(I, -1), so L' L'^T = L L^T - u u^T. Each pivot
  // shrinks; a nonpositive pivot means L L^T - u u^T is not SPD.
  for (std::size_t k = 0; k < n; ++k) {
    const double uk = u[k];
    if (uk == 0.0) continue;
    const double lkk = lp[k * n + k];
    const double r2 = (lkk - uk) * (lkk + uk);
    if (r2 <= 0.0)
      throw std::runtime_error(
          "DenseCholesky::rank_downdate: downdated matrix not SPD");
    const double r = std::sqrt(r2);
    const double c = r / lkk;
    const double s = uk / lkk;
    lp[k * n + k] = r;
    for (std::size_t i = k + 1; i < n; ++i) {
      const double lik = lp[i * n + k];
      lp[i * n + k] = (lik - s * u[i]) / c;
      u[i] = c * u[i] - s * lp[i * n + k];
    }
  }
}

void DenseCholesky::rank_update_many(const Matrix& u_cols) {
  if (u_cols.rows() != l_.rows())
    throw std::invalid_argument("DenseCholesky::rank_update_many: rows mismatch");
  std::vector<double> col(u_cols.rows());
  for (std::size_t c = 0; c < u_cols.cols(); ++c) {
    for (std::size_t i = 0; i < col.size(); ++i) col[i] = u_cols(i, c);
    rank_update(col);
  }
}

void DenseCholesky::rank_downdate_many(const Matrix& u_cols) {
  if (u_cols.rows() != l_.rows())
    throw std::invalid_argument(
        "DenseCholesky::rank_downdate_many: rows mismatch");
  std::vector<double> col(u_cols.rows());
  for (std::size_t c = 0; c < u_cols.cols(); ++c) {
    for (std::size_t i = 0; i < col.size(); ++i) col[i] = u_cols(i, c);
    rank_downdate(col);
  }
}

void DenseCholesky::append_row(std::span<const double> a_col) {
  const std::size_t n = l_.rows();
  if (a_col.size() != n + 1)
    throw std::invalid_argument("DenseCholesky::append_row: size mismatch");
  // New factor row: L[n, 0:n] solves L l = a_col[0:n); the diagonal closes
  // the square. Solve first (against the old factor), then grow storage.
  std::vector<double> row(a_col.begin(), a_col.begin() + static_cast<std::ptrdiff_t>(n));
  forward_solve_in_place(std::span<double>(row));
  double d = a_col[n];
  for (std::size_t j = 0; j < n; ++j) d -= row[j] * row[j];
  if (d <= 0.0)
    throw std::runtime_error(
        "DenseCholesky::append_row: extended matrix not SPD");
  Matrix grown(n + 1, n + 1);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j) grown(i, j) = l_(i, j);
  for (std::size_t j = 0; j < n; ++j) grown(n, j) = row[j];
  grown(n, n) = std::sqrt(d);
  l_ = std::move(grown);
}

double DenseCholesky::log_det() const {
  const std::size_t n = l_.rows();
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += std::log(l_(i, i));
  return 2.0 * s;
}

}  // namespace tsunami
