// Tests for the dense/banded linear algebra: BLAS kernels, Cholesky
// factorizations, CG, and the symmetric eigensolvers.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "linalg/banded_cholesky.hpp"
#include "linalg/blas.hpp"
#include "linalg/cg.hpp"
#include "linalg/dense.hpp"
#include "linalg/dense_cholesky.hpp"
#include "linalg/eigen.hpp"
#include "util/rng.hpp"

namespace tsunami {
namespace {

Matrix random_spd(std::size_t n, Rng& rng, double diag_boost = 1.0) {
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.normal();
  Matrix spd(n, n);
  gemm_tn(a, a, spd);  // A^T A is SPSD
  for (std::size_t i = 0; i < n; ++i)
    spd(i, i) += diag_boost + static_cast<double>(n);
  return spd;
}

/// The packed factor expanded to a square lower-triangular matrix.
Matrix square(const DenseCholesky& chol) {
  const std::size_t n = chol.dim();
  Matrix l(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<const double> row = chol.row(i);
    std::copy(row.begin(), row.end(), l.row(i).begin());
  }
  return l;
}

/// Max |difference| over two factors' packed entries (infinite when their
/// orders differ).
double max_packed_diff(const DenseCholesky& a, const DenseCholesky& b) {
  if (a.dim() != b.dim()) return std::numeric_limits<double>::infinity();
  double m = 0.0;
  for (std::size_t k = 0; k < a.packed().size(); ++k)
    m = std::max(m, std::abs(a.packed()[k] - b.packed()[k]));
  return m;
}

/// The lower triangle of a square matrix, packed by rows.
std::vector<double> pack(const Matrix& l) {
  std::vector<double> packed;
  for (std::size_t i = 0; i < l.rows(); ++i)
    for (std::size_t j = 0; j <= i; ++j) packed.push_back(l(i, j));
  return packed;
}

/// True when `a` and `b` hold the same bits, entry for entry.
bool same_bits(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::bit_cast<std::uint64_t>(a[i]) != std::bit_cast<std::uint64_t>(b[i]))
      return false;
  return true;
}

/// The textbook forward substitution, row by row, one dependent chain per
/// row: the operation order forward_solve_range promises to keep.
void textbook_forward_solve(const Matrix& l, std::vector<double>& b) {
  for (std::size_t i = 0; i < b.size(); ++i) {
    double s = b[i];
    for (std::size_t j = 0; j < i; ++j) s -= l(i, j) * b[j];
    b[i] = s / l(i, i);
  }
}

/// The textbook backward substitution L[0:p, 0:p]^T x = b[0:p).
void textbook_backward_solve(const Matrix& l, std::vector<double>& b,
                             std::size_t prefix) {
  for (std::size_t ii = prefix; ii-- > 0;) {
    double s = b[ii];
    for (std::size_t j = ii + 1; j < prefix; ++j) s -= l(j, ii) * b[j];
    b[ii] = s / l(ii, ii);
  }
}

// ---- square-storage oracles for the packed factor -------------------------
// The loops DenseCholesky ran when it stored L as a square matrix, kept here
// as the reference its packed rows must reproduce bit for bit. Run serially:
// each row's panel and trailing work is independent of every other row's,
// so the pool's schedule moves no bit.

/// The blocked right-looking factorization, 64-row diagonal blocks.
Matrix square_factor(const Matrix& a) {
  Matrix l = a;
  const std::size_t n = l.rows();
  constexpr std::size_t kBlock = 64;
  for (std::size_t k0 = 0; k0 < n; k0 += kBlock) {
    const std::size_t k1 = std::min(k0 + kBlock, n);
    for (std::size_t k = k0; k < k1; ++k) {
      double d = l(k, k);
      for (std::size_t j = k0; j < k; ++j) {
        const double v = l(k, j);
        d -= v * v;
      }
      const double diag = std::sqrt(d);
      l(k, k) = diag;
      for (std::size_t i = k + 1; i < k1; ++i) {
        double s = l(i, k);
        for (std::size_t j = k0; j < k; ++j) s -= l(i, j) * l(k, j);
        l(i, k) = s / diag;
      }
    }
    if (k1 == n) break;
    for (std::size_t i = k1; i < n; ++i)
      for (std::size_t k = k0; k < k1; ++k) {
        double s = l(i, k);
        for (std::size_t j = k0; j < k; ++j) s -= l(i, j) * l(k, j);
        l(i, k) = s / l(k, k);
      }
    for (std::size_t i = k1; i < n; ++i)
      for (std::size_t j = k1; j <= i; ++j) {
        double s = 0.0;
        for (std::size_t k = k0; k < k1; ++k) s += l(i, k) * l(j, k);
        l(i, j) -= s;
      }
  }
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) l(i, j) = 0.0;
  return l;
}

/// Givens (sign +1) or hyperbolic (sign -1) rank-1 edit down the columns.
void square_rank_edit(Matrix& l, std::vector<double> u, double sign) {
  const std::size_t n = l.rows();
  for (std::size_t k = 0; k < n; ++k) {
    const double uk = u[k];
    if (uk == 0.0) continue;
    const double lkk = l(k, k);
    const double r = sign > 0.0 ? std::hypot(lkk, uk)
                                : std::sqrt((lkk - uk) * (lkk + uk));
    const double c = r / lkk;
    const double s = uk / lkk;
    l(k, k) = r;
    for (std::size_t i = k + 1; i < n; ++i) {
      const double lik = l(i, k);
      l(i, k) = sign > 0.0 ? (lik + s * u[i]) / c : (lik - s * u[i]) / c;
      u[i] = c * u[i] - s * l(i, k);
    }
  }
}

/// append_row on square storage: solve the new row, close the diagonal.
Matrix square_append_row(const Matrix& l, const std::vector<double>& a_col) {
  const std::size_t n = l.rows();
  std::vector<double> row(a_col.begin(),
                          a_col.begin() + static_cast<std::ptrdiff_t>(n));
  textbook_forward_solve(l, row);
  double d = a_col[n];
  for (std::size_t j = 0; j < n; ++j) d -= row[j] * row[j];
  Matrix grown(n + 1, n + 1);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j) grown(i, j) = l(i, j);
  for (std::size_t j = 0; j < n; ++j) grown(n, j) = row[j];
  grown(n, n) = std::sqrt(d);
  return grown;
}

/// Sizes around the 64-row block and 8-row solve group: a single row, one
/// short of a block, a block, one past, two blocks and change, and a prime.
constexpr std::size_t kPackedSizes[] = {1, 63, 64, 65, 130, 257, 383};

TEST(Blas, AxpyDotNorm) {
  std::vector<double> x{1.0, 2.0, 3.0}, y{4.0, 5.0, 6.0};
  axpy(2.0, x, std::span<double>(y));
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[2], 12.0);
  EXPECT_DOUBLE_EQ(dot(x, x), 14.0);
  EXPECT_DOUBLE_EQ(nrm2(x), std::sqrt(14.0));
  EXPECT_DOUBLE_EQ(amax(y), 12.0);
}

TEST(Blas, DotLargeVectorParallelPathMatchesSerial) {
  Rng rng(11);
  const std::size_t n = 1 << 16;  // above the parallel threshold
  const auto x = rng.normal_vector(n);
  const auto y = rng.normal_vector(n);
  double serial = 0.0;
  for (std::size_t i = 0; i < n; ++i) serial += x[i] * y[i];
  EXPECT_NEAR(dot(x, y), serial, 1e-9 * std::abs(serial) + 1e-9);
}

TEST(Blas, GemvMatchesManualProduct) {
  Matrix a(2, 3);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(0, 2) = 3;
  a(1, 0) = 4;
  a(1, 1) = 5;
  a(1, 2) = 6;
  std::vector<double> x{1.0, 1.0, 1.0}, y(2);
  gemv(a, x, std::span<double>(y));
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 15.0);
}

TEST(Blas, GemvTransposeIsAdjointOfGemv) {
  Rng rng(5);
  const std::size_t m = 37, n = 23;
  Matrix a(m, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.normal();
  const auto x = rng.normal_vector(n);
  const auto y = rng.normal_vector(m);
  std::vector<double> ax(m), aty(n);
  gemv(a, x, std::span<double>(ax));
  gemv_t(a, y, std::span<double>(aty));
  // <A x, y> == <x, A^T y>
  EXPECT_NEAR(dot(ax, y), dot(x, aty), 1e-12 * m * n);
}

TEST(Blas, GemmMatchesGemvColumnwise) {
  Rng rng(6);
  const std::size_t m = 13, k = 9, n = 7;
  Matrix a(m, k), b(k, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < k; ++j) a(i, j) = rng.normal();
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.normal();
  Matrix c(m, n);
  gemm(a, b, c);
  for (std::size_t j = 0; j < n; ++j) {
    std::vector<double> col(k), out(m);
    for (std::size_t i = 0; i < k; ++i) col[i] = b(i, j);
    gemv(a, col, std::span<double>(out));
    for (std::size_t i = 0; i < m; ++i) EXPECT_NEAR(c(i, j), out[i], 1e-12);
  }
}

TEST(Blas, GemmTnEqualsExplicitTranspose) {
  Rng rng(8);
  Matrix a(6, 4), b(6, 5);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 4; ++j) a(i, j) = rng.normal();
    for (std::size_t j = 0; j < 5; ++j) b(i, j) = rng.normal();
  }
  Matrix c1(4, 5), c2(4, 5);
  gemm_tn(a, b, c1);
  const Matrix at = a.transposed();
  gemm(at, b, c2);
  EXPECT_LT(c1.max_abs_diff(c2), 1e-13);
}

TEST(Blas, ShapeMismatchThrows) {
  Matrix a(3, 2);
  std::vector<double> x(3), y(3);
  EXPECT_THROW(gemv(a, x, std::span<double>(y)), std::invalid_argument);
  EXPECT_THROW((void)dot(std::span<const double>(x),
                         std::span<const double>(y).subspan(0, 2)),
               std::invalid_argument);
}

class DenseCholeskyTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DenseCholeskyTest, ReconstructsMatrix) {
  Rng rng(GetParam());
  const std::size_t n = GetParam();
  const Matrix a = random_spd(n, rng);
  const DenseCholesky chol(a);
  ASSERT_EQ(chol.packed().size(), n * (n + 1) / 2);
  const Matrix l = square(chol);
  Matrix llt(n, n);
  const Matrix lt = l.transposed();
  gemm(l, lt, llt);
  EXPECT_LT(a.max_abs_diff(llt), 1e-9 * static_cast<double>(n));
}

TEST_P(DenseCholeskyTest, SolvesLinearSystem) {
  Rng rng(GetParam() + 1);
  const std::size_t n = GetParam();
  const Matrix a = random_spd(n, rng);
  const auto x_true = rng.normal_vector(n);
  std::vector<double> b(n);
  gemv(a, x_true, std::span<double>(b));
  const DenseCholesky chol(a);
  chol.solve_in_place(std::span<double>(b));
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(b[i], x_true[i], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DenseCholeskyTest,
                         ::testing::Values(1, 3, 17, 64, 130, 257));

TEST(DenseCholesky, MultiRhsSolve) {
  Rng rng(21);
  const std::size_t n = 40, k = 7;
  const Matrix a = random_spd(n, rng);
  Matrix x_true(n, k), b(n, k);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < k; ++j) x_true(i, j) = rng.normal();
  gemm(a, x_true, b);
  const DenseCholesky chol(a);
  chol.solve_in_place(b);
  EXPECT_LT(b.max_abs_diff(x_true), 1e-8);
}

TEST(DenseCholesky, ForwardSolveRangeResumesExactly) {
  // Forward substitution is causal: solving in arbitrary chunks as RHS
  // entries "arrive" must reproduce the one-shot solve bitwise — the
  // property the streaming assimilator's per-tick extension rests on.
  Rng rng(23);
  const std::size_t n = 60;
  const Matrix a = random_spd(n, rng);
  const DenseCholesky chol(a);
  const auto rhs = rng.normal_vector(n);

  std::vector<double> full(rhs);
  chol.forward_solve_in_place(std::span<double>(full));

  std::vector<double> chunked(n, 0.0);
  const std::size_t cuts[] = {0, 7, 8, 31, 60};
  for (std::size_t c = 0; c + 1 < 5; ++c) {
    for (std::size_t i = cuts[c]; i < cuts[c + 1]; ++i) chunked[i] = rhs[i];
    chol.forward_solve_range(std::span<double>(chunked), cuts[c], cuts[c + 1]);
  }
  EXPECT_EQ(chunked, full);
}

TEST(DenseCholesky, ForwardSolveRangeMatchesTextbookLoopBitwise) {
  // forward_solve_range solves its rows in groups that share the loads of
  // b; every row must still take the textbook sequence of operations, so
  // any range, aligned or not, of any length reproduces the textbook bits.
  const std::size_t kSizes[] = {1, 7, 8, 9, 23, 64, 130};
  const std::size_t kLengths[] = {0, 1, 7, 8, 9, 16, 17};
  for (const std::size_t n : kSizes) {
    Rng rng(400 + n);
    const DenseCholesky chol(random_spd(n, rng));
    const auto rhs = rng.normal_vector(n);
    std::vector<double> ref(rhs);
    textbook_forward_solve(square(chol), ref);

    for (const std::size_t len : kLengths) {
      if (len > n) continue;
      const std::size_t kBegins[] = {0, 3, 8, n - len};
      for (const std::size_t begin : kBegins) {
        if (begin + len > n) continue;
        // Solved prefix, fresh right-hand side in the range, and a tail the
        // solve must not touch.
        std::vector<double> b(ref.begin(),
                              ref.begin() + static_cast<std::ptrdiff_t>(begin));
        b.insert(b.end(), rhs.begin() + static_cast<std::ptrdiff_t>(begin),
                 rhs.end());
        chol.forward_solve_range(std::span<double>(b), begin, begin + len);
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(b[i], i < begin + len ? ref[i] : rhs[i])
              << "n " << n << ", range [" << begin << ", " << begin + len
              << "), row " << i;
        }
      }
    }

    // Consecutive 8-row blocks, as the assimilator issues them per tick.
    std::vector<double> b(rhs);
    for (std::size_t p0 = 0; p0 < n; p0 += 8)
      chol.forward_solve_range(std::span<double>(b), p0, std::min(p0 + 8, n));
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(b[i], ref[i]) << "n " << n << ", 8-row blocks, row " << i;
  }
}

TEST(DenseCholesky, PrefixSolvesMatchLeadingSubsystemFactorization) {
  // Cholesky commutes with leading principal submatrices, so prefix forward
  // + backward substitution on the FULL factor must equal a from-scratch
  // factorization of the truncated matrix.
  Rng rng(24);
  const std::size_t n = 48;
  const Matrix a = random_spd(n, rng);
  const DenseCholesky chol(a);
  const auto rhs = rng.normal_vector(n);
  for (const std::size_t p : {std::size_t{1}, std::size_t{17}, n}) {
    Matrix ap(p, p);
    for (std::size_t i = 0; i < p; ++i)
      for (std::size_t j = 0; j < p; ++j) ap(i, j) = a(i, j);
    std::vector<double> x_ref(rhs.begin(),
                              rhs.begin() + static_cast<std::ptrdiff_t>(p));
    DenseCholesky(ap).solve_in_place(std::span<double>(x_ref));

    std::vector<double> x(rhs.begin(), rhs.begin() + static_cast<std::ptrdiff_t>(p));
    chol.forward_solve_range(std::span<double>(x), 0, p);
    chol.backward_solve_prefix(std::span<double>(x), p);
    for (std::size_t i = 0; i < p; ++i)
      EXPECT_NEAR(x[i], x_ref[i], 1e-10 * (std::abs(x_ref[i]) + 1.0))
          << "prefix " << p;
  }
}

TEST(DenseCholesky, ForwardBackwardComposeToFullSolve) {
  Rng rng(25);
  const std::size_t n = 33;
  const Matrix a = random_spd(n, rng);
  const DenseCholesky chol(a);
  const auto rhs = rng.normal_vector(n);
  std::vector<double> x1(rhs), x2(rhs);
  chol.solve_in_place(std::span<double>(x1));
  chol.forward_solve_in_place(std::span<double>(x2));
  chol.backward_solve_in_place(std::span<double>(x2));
  EXPECT_EQ(x1, x2);
}

TEST(DenseCholesky, MultiRhsForwardSolveMatchesColumnwise) {
  Rng rng(26);
  const std::size_t n = 30, k = 5;
  const Matrix a = random_spd(n, rng);
  const DenseCholesky chol(a);
  Matrix b(n, k);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < k; ++j) b(i, j) = rng.normal();
  Matrix fwd(b);
  chol.forward_solve_in_place(fwd);
  for (std::size_t j = 0; j < k; ++j) {
    std::vector<double> col(n);
    for (std::size_t i = 0; i < n; ++i) col[i] = b(i, j);
    chol.forward_solve_in_place(std::span<double>(col));
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(fwd(i, j), col[i]);
  }
}

TEST(DenseCholesky, PrefixRangeValidation) {
  Rng rng(27);
  const Matrix a = random_spd(8, rng);
  const DenseCholesky chol(a);
  std::vector<double> b(8, 1.0);
  EXPECT_THROW(chol.forward_solve_range(std::span<double>(b), 5, 3),
               std::invalid_argument);
  EXPECT_THROW(chol.forward_solve_range(std::span<double>(b), 0, 9),
               std::invalid_argument);
  EXPECT_THROW(chol.backward_solve_prefix(std::span<double>(b), 9),
               std::invalid_argument);
  std::vector<double> short_b(4, 1.0);
  EXPECT_THROW(chol.forward_solve_range(std::span<double>(short_b), 0, 8),
               std::invalid_argument);
}

TEST(DenseCholesky, LogDetMatchesKnownMatrix) {
  // diag(2, 3, 4): log det = log 24.
  Matrix a(3, 3);
  a(0, 0) = 2;
  a(1, 1) = 3;
  a(2, 2) = 4;
  const DenseCholesky chol(a);
  EXPECT_NEAR(chol.log_det(), std::log(24.0), 1e-12);
}

TEST(DenseCholesky, RejectsIndefiniteMatrix) {
  Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 1.0;  // eigenvalues 3, -1
  EXPECT_THROW(DenseCholesky{a}, std::runtime_error);
}

// ---------------------------------------------------------------------------
// Rank-r factor updates (the degraded-mode primitives): update/downdate and
// append_row must match a from-scratch factorization of the modified matrix
// to near machine precision — they are exact algebra, not approximations.
// ---------------------------------------------------------------------------

TEST(DenseCholesky, RankUpdateMatchesRefactorization) {
  Rng rng(31);
  const std::size_t n = 24;
  const Matrix a = random_spd(n, rng);
  const auto u = rng.normal_vector(n);

  Matrix a_up = a;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) a_up(i, j) += u[i] * u[j];

  DenseCholesky chol(a);
  std::vector<double> u_work = u;  // rank_update is destructive on u
  chol.rank_update(std::span<double>(u_work));
  const DenseCholesky ref(a_up);
  EXPECT_LT(max_packed_diff(chol, ref), 1e-10);
}

TEST(DenseCholesky, RankDowndateMatchesRefactorization) {
  Rng rng(32);
  const std::size_t n = 24;
  const Matrix base = random_spd(n, rng);
  const auto u = rng.normal_vector(n);
  // a = base + u u^T, so downdating u from chol(a) must recover chol(base).
  Matrix a = base;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) a(i, j) += u[i] * u[j];

  DenseCholesky chol(a);
  std::vector<double> u_work = u;
  chol.rank_downdate(std::span<double>(u_work));
  const DenseCholesky ref(base);
  EXPECT_LT(max_packed_diff(chol, ref), 1e-10);
}

// r = n - 1: the heaviest legal rank for one factor — a full sweep of
// updates then the matching downdates must return to the original factor.
TEST(DenseCholesky, RankManyRoundTripAtRankNMinusOne) {
  Rng rng(33);
  const std::size_t n = 16, r = n - 1;
  const Matrix a = random_spd(n, rng, 10.0);
  Matrix u_cols(n, r);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < r; ++j) u_cols(i, j) = 0.3 * rng.normal();

  // Reference: refactorize a + U U^T.
  Matrix a_up = a;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t k = 0; k < r; ++k)
        a_up(i, j) += u_cols(i, k) * u_cols(j, k);

  DenseCholesky chol(a);
  chol.rank_update_many(u_cols);
  const DenseCholesky ref(a_up);
  EXPECT_LT(max_packed_diff(chol, ref), 1e-10);

  chol.rank_downdate_many(u_cols);
  const DenseCholesky orig(a);
  EXPECT_LT(max_packed_diff(chol, orig), 1e-9);
}

TEST(DenseCholesky, DowndateToIndefiniteThrows) {
  Rng rng(34);
  const std::size_t n = 8;
  const Matrix a = random_spd(n, rng);
  DenseCholesky chol(a);
  // u far larger than any eigenvalue of a: a - u u^T is indefinite.
  std::vector<double> u(n, 100.0 * std::sqrt(a(0, 0) + static_cast<double>(n)));
  EXPECT_THROW(chol.rank_downdate(std::span<double>(u)), std::runtime_error);
}

TEST(DenseCholesky, DowndateAtTheConeBoundaryThrowsAndLeavesTheFactor) {
  // The SPD guard's boundary: u[0] == L(0,0) makes the first pivot exactly
  // zero, and the next double above L(0,0) makes it just negative. Both
  // leave the cone, so both must throw, and at k = 0 before any write.
  Rng rng(37);
  const Matrix a = random_spd(8, rng);
  DenseCholesky chol(a);
  const std::vector<double> before(chol.packed().begin(), chol.packed().end());
  const double l00 = chol.row(0)[0];
  for (const double u0 :
       {l00, std::nextafter(l00, std::numeric_limits<double>::infinity())}) {
    std::vector<double> u(8, 0.0);
    u[0] = u0;
    EXPECT_THROW(chol.rank_downdate(std::span<double>(u)), std::runtime_error)
        << "u[0] - L(0,0) = " << u0 - l00;
    for (std::size_t i = 0; i < before.size(); ++i)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(chol.packed()[i]),
                std::bit_cast<std::uint64_t>(before[i]))
          << "entry " << i << " after u[0] - L(0,0) = " << u0 - l00;
  }
}

TEST(DenseCholesky, RankUpdateZeroVectorIsExactNoop) {
  Rng rng(35);
  const Matrix a = random_spd(12, rng);
  DenseCholesky chol(a);
  const DenseCholesky before = chol;
  std::vector<double> zero(12, 0.0);
  chol.rank_update(std::span<double>(zero));
  EXPECT_TRUE(same_bits(chol.packed(), before.packed()));  // bitwise no-op
  chol.rank_downdate(std::span<double>(zero));
  EXPECT_TRUE(same_bits(chol.packed(), before.packed()));
}

TEST(DenseCholesky, AppendRowMatchesRefactorization) {
  Rng rng(36);
  const std::size_t n = 20;
  const Matrix full = random_spd(n + 1, rng);
  Matrix leading(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) leading(i, j) = full(i, j);

  DenseCholesky chol(leading);
  std::vector<double> a_col(n + 1);
  for (std::size_t i = 0; i < n; ++i) a_col[i] = full(n, i);
  a_col[n] = full(n, n);
  chol.append_row(a_col);

  const DenseCholesky ref(full);
  EXPECT_EQ(chol.dim(), n + 1);
  EXPECT_LT(max_packed_diff(chol, ref), 1e-10);
}

TEST(DenseCholesky, AppendRowRejectsNonSpdExtension) {
  Rng rng(37);
  const std::size_t n = 6;
  const Matrix a = random_spd(n, rng);
  DenseCholesky chol(a);
  std::vector<double> a_col(n + 1, 0.0);
  for (std::size_t i = 0; i < n; ++i) a_col[i] = 50.0 * (a(0, 0) + 1.0);
  a_col[n] = 1e-9;  // tiny diagonal under a huge coupled row: not SPD
  EXPECT_THROW(chol.append_row(a_col), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Packed storage: every kernel must reproduce, bit for bit, the loops it ran
// when L was stored square, at sizes that are not multiples of the 64-row
// block or the 8-row solve group.
// ---------------------------------------------------------------------------

TEST(DenseCholeskyPacked, FactorMatchesSquareStorageLoopsBitwise) {
  for (const std::size_t n : kPackedSizes) {
    Rng rng(700 + n);
    const Matrix a = random_spd(n, rng);
    const DenseCholesky chol(a);
    ASSERT_EQ(chol.packed().size(), n * (n + 1) / 2) << "n " << n;
    EXPECT_TRUE(same_bits(chol.packed(), pack(square_factor(a)))) << "n " << n;
    // The upper triangle is never read: garbage there changes nothing.
    Matrix junk = a;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j) junk(i, j) = 1e300;
    EXPECT_TRUE(same_bits(DenseCholesky(junk).packed(), chol.packed()))
        << "n " << n;
  }
}

TEST(DenseCholeskyPacked, SolvesMatchTextbookLoopsBitwiseAtEverySplit) {
  for (const std::size_t n : kPackedSizes) {
    Rng rng(710 + n);
    const DenseCholesky chol(random_spd(n, rng));
    const Matrix l = square(chol);
    const auto rhs = rng.normal_vector(n);
    std::vector<double> fwd(rhs);
    textbook_forward_solve(l, fwd);
    // forward_solve_range over [0, s) then [s, n), for every split s.
    for (std::size_t split = 0; split <= n; ++split) {
      std::vector<double> b(rhs);
      chol.forward_solve_range(std::span<double>(b), 0, split);
      chol.forward_solve_range(std::span<double>(b), split, n);
      ASSERT_TRUE(same_bits(b, fwd)) << "n " << n << ", split " << split;
    }
    // backward_solve_prefix at every prefix, on the forward solution.
    for (std::size_t p = 0; p <= n; ++p) {
      std::vector<double> want(fwd), got(fwd);
      textbook_backward_solve(l, want, p);
      chol.backward_solve_prefix(std::span<double>(got), p);
      ASSERT_TRUE(same_bits(got, want)) << "n " << n << ", prefix " << p;
    }
  }
}

TEST(DenseCholeskyPacked, RankUpdateAndDowndateMatchSquareStorageLoopsBitwise) {
  for (const std::size_t n : kPackedSizes) {
    Rng rng(720 + n);
    const Matrix base = random_spd(n, rng);
    const auto u = rng.normal_vector(n);
    Matrix a = base;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) a(i, j) += u[i] * u[j];

    DenseCholesky up(base);
    Matrix up_ref = square_factor(base);
    std::vector<double> work(u);
    up.rank_update(std::span<double>(work));
    square_rank_edit(up_ref, u, 1.0);
    EXPECT_TRUE(same_bits(up.packed(), pack(up_ref))) << "update, n " << n;

    DenseCholesky down(a);
    Matrix down_ref = square_factor(a);
    work = u;
    down.rank_downdate(std::span<double>(work));
    square_rank_edit(down_ref, u, -1.0);
    EXPECT_TRUE(same_bits(down.packed(), pack(down_ref)))
        << "downdate, n " << n;
  }
}

TEST(DenseCholeskyPacked, AppendRowMatchesSquareStorageLoopBitwise) {
  for (const std::size_t n : kPackedSizes) {
    Rng rng(730 + n);
    const Matrix full = random_spd(n + 1, rng);
    Matrix leading(n, n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) leading(i, j) = full(i, j);
    std::vector<double> a_col(n + 1);
    for (std::size_t i = 0; i <= n; ++i) a_col[i] = full(n, i);

    DenseCholesky chol(leading);
    chol.append_row(a_col);
    ASSERT_EQ(chol.dim(), n + 1);
    EXPECT_TRUE(same_bits(
        chol.packed(), pack(square_append_row(square_factor(leading), a_col))))
        << "n " << n;
  }
}

TEST(DenseCholesky, AppendRowRefusalLeavesTheFactor) {
  Rng rng(38);
  const std::size_t n = 6;
  const Matrix a = random_spd(n, rng);
  DenseCholesky chol(a);
  const DenseCholesky before = chol;
  std::vector<double> a_col(n + 1, 0.0);
  for (std::size_t i = 0; i < n; ++i) a_col[i] = 50.0 * (a(0, 0) + 1.0);
  a_col[n] = 1e-9;
  EXPECT_THROW(chol.append_row(a_col), std::runtime_error);
  EXPECT_EQ(chol.dim(), n);
  EXPECT_TRUE(same_bits(chol.packed(), before.packed()));
}

TEST(DenseCholesky, FromFactorAdoptsPackedRowsAndRefusesBadOnes) {
  Rng rng(39);
  const std::size_t n = 65;
  const DenseCholesky chol(random_spd(n, rng));
  const std::vector<double> packed(chol.packed().begin(), chol.packed().end());
  const DenseCholesky back = DenseCholesky::from_factor(n, packed);
  EXPECT_TRUE(same_bits(back.packed(), chol.packed()));
  const auto rhs = rng.normal_vector(n);
  std::vector<double> x1(rhs), x2(rhs);
  chol.solve_in_place(std::span<double>(x1));
  back.solve_in_place(std::span<double>(x2));
  EXPECT_TRUE(same_bits(x1, x2));

  // A wrong length: one entry short, one long, and a square n x n payload.
  for (const std::size_t len :
       {packed.size() - 1, packed.size() + 1, n * n}) {
    std::vector<double> bad(packed);
    bad.resize(len, 1.0);
    EXPECT_THROW((void)DenseCholesky::from_factor(n, bad),
                 std::invalid_argument)
        << len << " entries";
  }
  // A zero or NaN diagonal entry (row 40's, at offset 40 * 41 / 2 + 40).
  for (const double d : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN()}) {
    std::vector<double> bad(packed);
    bad[40 * 41 / 2 + 40] = d;
    EXPECT_THROW((void)DenseCholesky::from_factor(n, bad), std::runtime_error)
        << "diagonal " << d;
  }
  EXPECT_EQ(DenseCholesky::from_factor(0, {}).dim(), 0u);
}

TEST(BandedMatrix, MultiplyMatchesDense) {
  Rng rng(31);
  const std::size_t n = 30, bw = 4;
  BandedMatrix b(n, bw);
  Matrix dense(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    b.add(i, i, 10.0 + rng.uniform());
    dense(i, i) = b.band(i, 0);
    for (std::size_t d = 1; d <= std::min(bw, i); ++d) {
      const double v = rng.normal() * 0.3;
      b.add(i, i - d, v);
      dense(i, i - d) += v;
      dense(i - d, i) += v;
    }
  }
  const auto x = rng.normal_vector(n);
  std::vector<double> y1(n), y2(n);
  b.multiply(x, std::span<double>(y1));
  gemv(dense, x, std::span<double>(y2));
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(y1[i], y2[i], 1e-12);
}

TEST(BandedCholesky, SolveMatchesDenseCholesky) {
  Rng rng(32);
  const std::size_t n = 50, bw = 6;
  BandedMatrix b(n, bw);
  Matrix dense(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    b.add(i, i, 20.0);
    dense(i, i) += 20.0;
    for (std::size_t d = 1; d <= std::min(bw, i); ++d) {
      const double v = rng.normal();
      b.add(i, i - d, v);
      dense(i, i - d) += v;
      dense(i - d, i) += v;
    }
  }
  const auto rhs = rng.normal_vector(n);
  std::vector<double> x1(rhs), x2(rhs);
  BandedCholesky bchol(b);
  bchol.solve_in_place(std::span<double>(x1));
  DenseCholesky dchol(dense);
  dchol.solve_in_place(std::span<double>(x2));
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x1[i], x2[i], 1e-9);
}

TEST(BandedCholesky, ForwardBackwardComposeToFullSolve) {
  Rng rng(33);
  const std::size_t n = 25, bw = 3;
  BandedMatrix b(n, bw);
  for (std::size_t i = 0; i < n; ++i) {
    b.add(i, i, 8.0);
    if (i >= 1) b.add(i, i - 1, -1.0);
    if (i >= bw) b.add(i, i - bw, 0.5);
  }
  BandedCholesky chol(b);
  const auto rhs = rng.normal_vector(n);
  std::vector<double> x1(rhs), x2(rhs);
  chol.solve_in_place(std::span<double>(x1));
  chol.forward_solve_in_place(std::span<double>(x2));
  chol.backward_solve_in_place(std::span<double>(x2));
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x1[i], x2[i], 1e-12);
}

TEST(ConjugateGradient, SolvesSpdSystem) {
  Rng rng(41);
  const std::size_t n = 60;
  const Matrix a = random_spd(n, rng);
  const auto x_true = rng.normal_vector(n);
  std::vector<double> b(n);
  gemv(a, x_true, std::span<double>(b));
  const LinearOp op = [&](std::span<const double> in, std::span<double> out) {
    gemv(a, in, out);
  };
  std::vector<double> x(n, 0.0);
  CgOptions opts;
  opts.max_iterations = 500;
  opts.relative_tolerance = 1e-12;
  const auto res = conjugate_gradient(op, b, std::span<double>(x), opts);
  EXPECT_TRUE(res.converged);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-6);
}

TEST(ConjugateGradient, ConvergesInExactArithmeticBound) {
  // CG on an n-dimensional SPD system converges in <= n iterations.
  Rng rng(42);
  const std::size_t n = 20;
  const Matrix a = random_spd(n, rng);
  std::vector<double> b = rng.normal_vector(n), x(n, 0.0);
  const LinearOp op = [&](std::span<const double> in, std::span<double> out) {
    gemv(a, in, out);
  };
  const auto res = conjugate_gradient(op, b, std::span<double>(x),
                                      {.max_iterations = n + 5,
                                       .relative_tolerance = 1e-10});
  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.iterations, n + 1);
}

TEST(PreconditionedCg, ExactPreconditionerConvergesInOneIteration) {
  Rng rng(43);
  const std::size_t n = 30;
  const Matrix a = random_spd(n, rng);
  const DenseCholesky chol(a);
  const LinearOp op = [&](std::span<const double> in, std::span<double> out) {
    gemv(a, in, out);
  };
  const LinearOp pre = [&](std::span<const double> in, std::span<double> out) {
    std::copy(in.begin(), in.end(), out.begin());
    chol.solve_in_place(out);
  };
  std::vector<double> b = rng.normal_vector(n), x(n, 0.0);
  const auto res = preconditioned_conjugate_gradient(
      op, pre, b, std::span<double>(x),
      {.max_iterations = 10, .relative_tolerance = 1e-10});
  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.iterations, 2u);
}

TEST(ConjugateGradient, CountsOperatorApplications) {
  Matrix a(2, 2);
  a(0, 0) = 2.0;
  a(1, 1) = 3.0;
  const LinearOp op = [&](std::span<const double> in, std::span<double> out) {
    gemv(a, in, out);
  };
  std::vector<double> b{1.0, 1.0}, x(2, 0.0);
  const auto res = conjugate_gradient(op, b, std::span<double>(x));
  EXPECT_EQ(res.operator_applications, res.iterations + 1);
}

TEST(SymmetricEigenvalues, DiagonalMatrix) {
  Matrix a(3, 3);
  a(0, 0) = 3.0;
  a(1, 1) = 1.0;
  a(2, 2) = 2.0;
  const auto eigs = symmetric_eigenvalues(a);
  ASSERT_EQ(eigs.size(), 3u);
  EXPECT_NEAR(eigs[0], 3.0, 1e-12);
  EXPECT_NEAR(eigs[1], 2.0, 1e-12);
  EXPECT_NEAR(eigs[2], 1.0, 1e-12);
}

TEST(SymmetricEigenvalues, Known2x2) {
  Matrix a(2, 2);
  a(0, 0) = 2.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 2.0;
  const auto eigs = symmetric_eigenvalues(a);
  EXPECT_NEAR(eigs[0], 3.0, 1e-12);
  EXPECT_NEAR(eigs[1], 1.0, 1e-12);
}

TEST(SymmetricEigenvalues, TraceAndDetInvariants) {
  Rng rng(51);
  const std::size_t n = 12;
  const Matrix a = random_spd(n, rng);
  const auto eigs = symmetric_eigenvalues(a);
  double trace = 0.0, eig_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) trace += a(i, i);
  for (double e : eigs) eig_sum += e;
  EXPECT_NEAR(trace, eig_sum, 1e-8 * std::abs(trace));
  // log det via Cholesky must match sum of log eigenvalues.
  const DenseCholesky chol(a);
  double log_eigs = 0.0;
  for (double e : eigs) log_eigs += std::log(e);
  EXPECT_NEAR(chol.log_det(), log_eigs, 1e-8 * std::abs(log_eigs));
}

TEST(Lanczos, RecoversTopEigenvaluesOfDiagonalOperator) {
  const std::size_t n = 200;
  const LinearOp op = [n](std::span<const double> in, std::span<double> out) {
    for (std::size_t i = 0; i < n; ++i)
      out[i] = static_cast<double>(i + 1) * in[i];
  };
  const auto eigs = lanczos_eigenvalues(op, n, 5);
  ASSERT_GE(eigs.size(), 3u);
  EXPECT_NEAR(eigs[0], 200.0, 0.5);
  EXPECT_NEAR(eigs[1], 199.0, 1.0);
}

TEST(RandomizedEig, RecoversLowRankSpectrumAccurately) {
  // A rank-5 PSD operator: randomized eig with k=5 nails the spectrum and
  // leaves a tiny residual — the regime where low-rank SoA methods shine.
  const std::size_t n = 120, r = 5;
  Rng rng(61);
  Matrix u(n, r);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < r; ++j) u(i, j) = rng.normal();
  const std::vector<double> lambda{50.0, 20.0, 8.0, 3.0, 1.0};
  const LinearOp op = [&](std::span<const double> x, std::span<double> y) {
    std::vector<double> proj(r);
    gemv_t(u, x, std::span<double>(proj));
    for (std::size_t j = 0; j < r; ++j) proj[j] *= lambda[j];
    gemv(u, proj, y);
  };
  // Spectrum of U diag(lambda) U^T: compare against the dense computation.
  Matrix dense(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    std::vector<double> e(n, 0.0), col(n);
    e[j] = 1.0;
    op(e, std::span<double>(col));
    for (std::size_t i = 0; i < n; ++i) dense(i, j) = col[i];
  }
  const auto exact = symmetric_eigenvalues(dense);
  const auto approx = randomized_eigenvalues(op, n, r);
  ASSERT_EQ(approx.eigenvalues.size(), r);
  for (std::size_t j = 0; j < r; ++j)
    EXPECT_NEAR(approx.eigenvalues[j], exact[j],
                1e-6 * exact.front());
  EXPECT_LT(approx.residual_fraction, 1e-8);
}

TEST(RandomizedEig, FlatSpectrumLeavesLargeResidual) {
  // An identity-like operator has NO low-rank structure: truncating at
  // k << n must leave an O(1) residual — the paper's SecIV failure mode of
  // low-rank methods for the tsunami p2o Hessian.
  const std::size_t n = 150;
  const LinearOp op = [n](std::span<const double> x, std::span<double> y) {
    for (std::size_t i = 0; i < n; ++i)
      y[i] = (1.0 + 0.001 * static_cast<double>(i)) * x[i];
  };
  const auto approx = randomized_eigenvalues(op, n, 10);
  EXPECT_GT(approx.residual_fraction, 0.5);
}

TEST(RandomizedEig, HandlesFullDimensionRequest) {
  const std::size_t n = 12;
  Rng rng(62);
  const Matrix a = random_spd(n, rng);
  const LinearOp op = [&](std::span<const double> x, std::span<double> y) {
    gemv(a, x, y);
  };
  const auto exact = symmetric_eigenvalues(a);
  const auto approx = randomized_eigenvalues(op, n, n);
  ASSERT_EQ(approx.eigenvalues.size(), n);
  for (std::size_t j = 0; j < n; ++j)
    EXPECT_NEAR(approx.eigenvalues[j], exact[j], 1e-8 * exact.front());
}

TEST(EffectiveRank, CountsAboveThreshold) {
  const std::vector<double> eigs{10.0, 5.0, 1.0, 0.01, 0.001};
  EXPECT_EQ(effective_rank(eigs, 0.05), 3u);
  EXPECT_EQ(effective_rank(eigs, 1e-5), 5u);
  EXPECT_EQ(effective_rank({}, 0.1), 0u);
}

}  // namespace
}  // namespace tsunami
