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

DenseCholesky::DenseCholesky(const Matrix& a) : n_(a.rows()) {
  if (a.rows() != a.cols())
    throw std::invalid_argument("DenseCholesky: matrix not square");
  const std::size_t n = n_;
  l_.reserve(row_offset(n));
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<const double> ai = a.row(i);
    l_.insert(l_.end(), ai.begin(), ai.begin() + static_cast<std::ptrdiff_t>(i + 1));
  }
  double* lp = l_.data();

  // Every loop below reads and writes only entries (i, j) with j <= i, so
  // the blocked factorization runs in the packed rows as it is.
  for (std::size_t k0 = 0; k0 < n; k0 += kBlock) {
    const std::size_t k1 = std::min(k0 + kBlock, n);
    // Factor the diagonal block (unblocked).
    for (std::size_t k = k0; k < k1; ++k) {
      double* lk = lp + row_offset(k);
      double d = lk[k];
      for (std::size_t j = k0; j < k; ++j) {
        const double v = lk[j];
        d -= v * v;
      }
      if (d <= 0.0)
        throw std::runtime_error("DenseCholesky: matrix not SPD (pivot <= 0)");
      const double diag = std::sqrt(d);
      lk[k] = diag;
      for (std::size_t i = k + 1; i < k1; ++i) {
        double* li = lp + row_offset(i);
        double s = li[k];
        for (std::size_t j = k0; j < k; ++j) s -= li[j] * lk[j];
        li[k] = s / diag;
      }
    }
    if (k1 == n) break;
    // Panel solve: rows k1..n of columns k0..k1 (L21 = A21 L11^{-T}).
    parallel_for_min(n - k1, 8, [&](std::size_t ii) {
      double* li = lp + row_offset(k1 + ii);
      for (std::size_t k = k0; k < k1; ++k) {
        const double* lk = lp + row_offset(k);
        double s = li[k];
        for (std::size_t j = k0; j < k; ++j) s -= li[j] * lk[j];
        li[k] = s / lk[k];
      }
    });
    // Trailing update: A22 -= L21 L21^T (lower triangle only).
    parallel_for_min(n - k1, 8, [&](std::size_t ii) {
      const std::size_t i = k1 + ii;
      double* li = lp + row_offset(i);
      for (std::size_t j = k1; j <= i; ++j) {
        const double* lj = lp + row_offset(j);
        double s = 0.0;
        for (std::size_t k = k0; k < k1; ++k) s += li[k] * lj[k];
        li[j] -= s;
      }
    });
  }
}

DenseCholesky DenseCholesky::from_factor(std::size_t n,
                                         std::vector<double> packed) {
  // n < 2^32 keeps n(n+1)/2 from wrapping; no vector holds a larger factor.
  if (n >= (std::size_t{1} << 32) || packed.size() != row_offset(n))
    throw std::invalid_argument(
        "DenseCholesky::from_factor: packed length is not n(n+1)/2");
  for (std::size_t i = 0; i < n; ++i)
    if (!(packed[row_offset(i) + i] > 0.0))
      throw std::runtime_error(
          "DenseCholesky::from_factor: nonpositive diagonal (not a Cholesky "
          "factor)");
  DenseCholesky c;
  c.n_ = n;
  c.l_ = std::move(packed);
  return c;
}

TSUNAMI_HOT_PATH void DenseCholesky::forward_solve_range(
    std::span<double> b, std::size_t begin, std::size_t end) const {
  if (begin > end || end > n_ || b.size() < end)
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
      row[r] = lp + row_offset(i0 + r);
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
    const double* row = lp + row_offset(i);
    for (std::size_t j = 0; j < i; ++j) s -= row[j] * b[j];
    b[i] = s / row[i];
  }
}

void DenseCholesky::forward_solve_in_place(std::span<double> b) const {
  if (b.size() != n_)
    throw std::invalid_argument("DenseCholesky: rhs size mismatch");
  forward_solve_range(b, 0, n_);
}

void DenseCholesky::forward_solve_in_place(Matrix& b) const {
  if (b.rows() != n_)
    throw std::invalid_argument("DenseCholesky: rhs rows mismatch");
  solve_columns(b,
                [this](std::span<double> col) { forward_solve_in_place(col); });
}

void DenseCholesky::backward_solve_prefix(std::span<double> b,
                                          std::size_t prefix) const {
  if (prefix > n_ || b.size() < prefix)
    throw std::invalid_argument("DenseCholesky: bad backward-solve prefix");
  const double* lp = l_.data();
  for (std::size_t ii = prefix; ii-- > 0;) {
    double s = b[ii];
    // Column ii below the diagonal: L(j + 1, ii) sits j + 1 entries past
    // L(j, ii).
    std::size_t at = row_offset(ii + 1) + ii;
    for (std::size_t j = ii + 1; j < prefix; ++j) {
      s -= lp[at] * b[j];
      at += j + 1;
    }
    b[ii] = s / lp[row_offset(ii) + ii];
  }
}

void DenseCholesky::backward_solve_in_place(std::span<double> b) const {
  if (b.size() != n_)
    throw std::invalid_argument("DenseCholesky: rhs size mismatch");
  backward_solve_prefix(b, n_);
}

void DenseCholesky::solve_in_place(std::span<double> b) const {
  forward_solve_in_place(b);
  backward_solve_in_place(b);
}

void DenseCholesky::solve_in_place(Matrix& b) const {
  if (b.rows() != n_)
    throw std::invalid_argument("DenseCholesky: rhs rows mismatch");
  solve_columns(b, [this](std::span<double> col) { solve_in_place(col); });
}

TSUNAMI_HOT_PATH void DenseCholesky::rank_update(std::span<double> u) {
  const std::size_t n = n_;
  if (u.size() != n)
    throw std::invalid_argument("DenseCholesky::rank_update: size mismatch");
  double* lp = l_.data();
  // Givens rotations annihilate u against the diagonal of L, column by
  // column: [L u] Q^T = [L' 0] with Q orthogonal, so L' L'^T = L L^T + u u^T.
  for (std::size_t k = 0; k < n; ++k) {
    const double uk = u[k];
    if (uk == 0.0) continue;
    const std::size_t kk = row_offset(k) + k;
    const double lkk = lp[kk];
    const double r = std::hypot(lkk, uk);
    const double c = r / lkk;
    const double s = uk / lkk;
    lp[kk] = r;
    // Down column k: L(i + 1, k) sits i + 1 entries past L(i, k).
    std::size_t ik = kk + k + 1;
    for (std::size_t i = k + 1; i < n; ik += ++i) {
      const double lik = lp[ik];
      lp[ik] = (lik + s * u[i]) / c;
      u[i] = c * u[i] - s * lp[ik];
    }
  }
}

TSUNAMI_HOT_PATH void DenseCholesky::rank_downdate(std::span<double> u) {
  const std::size_t n = n_;
  if (u.size() != n)
    throw std::invalid_argument("DenseCholesky::rank_downdate: size mismatch");
  double* lp = l_.data();
  // Hyperbolic rotations: [L u] H = [L' 0] with H J H^T = J for the
  // signature J = diag(I, -1), so L' L'^T = L L^T - u u^T. Each pivot
  // shrinks; a nonpositive pivot means L L^T - u u^T is not SPD.
  for (std::size_t k = 0; k < n; ++k) {
    const double uk = u[k];
    if (uk == 0.0) continue;
    const std::size_t kk = row_offset(k) + k;
    const double lkk = lp[kk];
    const double r2 = (lkk - uk) * (lkk + uk);
    if (r2 <= 0.0)
      throw std::runtime_error(
          "DenseCholesky::rank_downdate: downdated matrix not SPD");
    const double r = std::sqrt(r2);
    const double c = r / lkk;
    const double s = uk / lkk;
    lp[kk] = r;
    std::size_t ik = kk + k + 1;
    for (std::size_t i = k + 1; i < n; ik += ++i) {
      const double lik = lp[ik];
      lp[ik] = (lik - s * u[i]) / c;
      u[i] = c * u[i] - s * lp[ik];
    }
  }
}

void DenseCholesky::rank_update_many(const Matrix& u_cols) {
  if (u_cols.rows() != n_)
    throw std::invalid_argument("DenseCholesky::rank_update_many: rows mismatch");
  std::vector<double> col(u_cols.rows());
  for (std::size_t c = 0; c < u_cols.cols(); ++c) {
    for (std::size_t i = 0; i < col.size(); ++i) col[i] = u_cols(i, c);
    rank_update(col);
  }
}

void DenseCholesky::rank_downdate_many(const Matrix& u_cols) {
  if (u_cols.rows() != n_)
    throw std::invalid_argument(
        "DenseCholesky::rank_downdate_many: rows mismatch");
  std::vector<double> col(u_cols.rows());
  for (std::size_t c = 0; c < u_cols.cols(); ++c) {
    for (std::size_t i = 0; i < col.size(); ++i) col[i] = u_cols(i, c);
    rank_downdate(col);
  }
}

void DenseCholesky::append_row(std::span<const double> a_col) {
  const std::size_t n = n_;
  if (a_col.size() != n + 1)
    throw std::invalid_argument("DenseCholesky::append_row: size mismatch");
  // New factor row, appended after row n - 1: L[n, 0:n] solves
  // L l = a_col[0:n) against the old rows, and the diagonal closes the
  // square. A refused extension truncates the storage back.
  const std::size_t at = l_.size();
  l_.insert(l_.end(), a_col.begin(), a_col.end());
  const std::span<double> row(l_.data() + at, n + 1);
  forward_solve_range(row, 0, n);
  double d = row[n];
  for (std::size_t j = 0; j < n; ++j) d -= row[j] * row[j];
  if (d <= 0.0) {
    l_.resize(at);
    throw std::runtime_error(
        "DenseCholesky::append_row: extended matrix not SPD");
  }
  row[n] = std::sqrt(d);
  ++n_;
}

double DenseCholesky::log_det() const {
  double s = 0.0;
  for (std::size_t i = 0; i < n_; ++i) s += std::log(l_[row_offset(i) + i]);
  return 2.0 * s;
}

}  // namespace tsunami
