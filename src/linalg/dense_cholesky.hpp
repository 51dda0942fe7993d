#pragma once

// Dense symmetric positive-definite Cholesky factorization and solves.
//
// This is the CPU stand-in for the paper's cuSOLVERMp Cholesky of the
// data-space Hessian K = Gamma_noise + F G* (Table III: "factorize K").
// Blocked right-looking algorithm with pool-parallel trailing updates.
//
// Prefix solves: because Cholesky commutes with taking leading principal
// submatrices (the factor of A[0:p, 0:p] is exactly L[0:p, 0:p]), the same
// factor serves every truncated system A_p x = b_p. Forward substitution is
// additionally *causal* — entry i of L^{-1} b depends only on b[0:i+1] — so
// it can be resumed row-by-row as new right-hand-side entries arrive. The
// range/prefix entry points below expose both facts; they are the kernel of
// the streaming assimilation engine (src/core/streaming_assimilator.hpp).
//
// Storage: L's lower triangle only, packed by rows — row i is the i + 1
// entries L(i, 0..i) starting at offset i(i+1)/2 — so an order-n factor
// holds n(n+1)/2 doubles, not n^2. The artifact bundle ships this vector
// as it is (packed()), and from_factor adopts it back.

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/dense.hpp"
#include "util/hot_path.hpp"

namespace tsunami {

/// Cholesky factorization A = L L^T of an SPD matrix (lower triangular L).
class DenseCholesky {
 public:
  /// Factorizes a packed copy of `a`'s lower triangle (the upper triangle
  /// is never read) in diagonal blocks of 64 rows. Throws
  /// std::runtime_error if a nonpositive pivot is encountered (matrix not
  /// SPD to working precision).
  explicit DenseCholesky(const Matrix& a);

  /// Rebuild from a previously computed factor (factor export/import: the
  /// warm-start path loads L from an artifact bundle instead of paying the
  /// O(n^3) factorization again). Adopts `packed`, laid out as packed()
  /// returns it, without copying. Throws std::invalid_argument unless it
  /// holds n(n+1)/2 entries, and std::runtime_error unless every diagonal
  /// entry is > 0 (so a zero or NaN diagonal is refused). All solves on the
  /// result are bit-identical to the original object's.
  [[nodiscard]] static DenseCholesky from_factor(std::size_t n,
                                                 std::vector<double> packed);

  /// Solve A x = b in place (forward + backward substitution).
  void solve_in_place(std::span<double> b) const;

  /// Solve for multiple right-hand sides stored as columns of B.
  void solve_in_place(Matrix& b) const;

  /// Solve L y = b (forward substitution only).
  void forward_solve_in_place(std::span<double> b) const;

  /// Forward substitution for multiple right-hand sides (columns of B).
  void forward_solve_in_place(Matrix& b) const;

  /// Resume forward substitution over rows [begin, end). On entry, b[0:begin)
  /// must already hold solution entries of L y = b (from earlier calls) and
  /// b[begin:end) the newly arrived right-hand-side entries; on exit,
  /// b[begin:end) holds solution entries. b[end:] is never read or written,
  /// so a full-length buffer can be filled incrementally. Cost O((end-begin)
  /// * end) — extending a solve by one block touches only the new rows.
  /// Bitwise equal to the textbook loop `s = b[i]; for j < i: s -= L(i,j)
  /// b[j]; b[i] = s / L(i,i)` over i ascending: rows are solved in groups of
  /// 8 that share the loads of b, but each row keeps that exact sequence of
  /// operations, so any split of [0, n) into ranges gives the same bits.
  TSUNAMI_HOT_PATH void forward_solve_range(std::span<double> b,
                                            std::size_t begin,
                                            std::size_t end) const;

  /// Backward substitution L^T x = b (completes a solve of A x = rhs after
  /// forward_solve_*).
  void backward_solve_in_place(std::span<double> b) const;

  /// Backward substitution restricted to the leading principal subsystem:
  /// solves L[0:p, 0:p]^T x = b[0:p) in place. Because the leading block of L
  /// is the Cholesky factor of the leading block of A, composing
  /// forward_solve_range(b, 0, p) with backward_solve_prefix(b, p) solves
  /// A[0:p, 0:p] x = b[0:p) exactly — no refactorization.
  void backward_solve_prefix(std::span<double> b, std::size_t prefix) const;

  // ---- low-rank factor maintenance ----------------------------------------
  // Rank-1 update/downdate rotate the factor in place in O(n^2) — the kernel
  // of degraded-mode inference (ISSUE 10): removing or re-adding a sensor's
  // rows edits the data-space factor without the O(n^3) refactorization.
  // Both are destructive on `u` (it becomes rotation scratch); callers own
  // the buffer so the streaming hot path can reuse one allocation forever.

  /// A <- A + u u^T via Givens rotations applied to [L u]. Destroys `u`.
  /// u.size() must equal dim().
  TSUNAMI_HOT_PATH void rank_update(std::span<double> u);

  /// A <- A - u u^T via hyperbolic rotations. Destroys `u`. Throws
  /// std::runtime_error if the downdated matrix is not SPD to working
  /// precision (the pivot under the rotation would be nonpositive).
  TSUNAMI_HOT_PATH void rank_downdate(std::span<double> u);

  /// Rank-r update/downdate: one rank-1 pass per column of `u_cols`
  /// (dim() x r), left to right. O(r n^2) total.
  void rank_update_many(const Matrix& u_cols);
  void rank_downdate_many(const Matrix& u_cols);

  /// Grow the factorization by one trailing row/column: given the new
  /// symmetric column a_col = A[0:n+1, n] of the extended matrix (length
  /// n+1, diagonal entry last), solves for the matching factor row in
  /// O(n^2) and appends it to the packed storage. Throws if the extended
  /// matrix is not SPD, leaving the factor as it was. This is the "sensor
  /// joins" direction of the update/downdate pair.
  void append_row(std::span<const double> a_col);

  /// log det(A) = 2 sum log L_ii.
  [[nodiscard]] double log_det() const;

  /// Row i of L up to its diagonal: L(i, 0..i), i + 1 entries.
  [[nodiscard]] std::span<const double> row(std::size_t i) const {
    return {l_.data() + row_offset(i), i + 1};
  }
  /// The whole factor, packed by rows: n(n+1)/2 entries.
  [[nodiscard]] std::span<const double> packed() const { return l_; }
  [[nodiscard]] std::size_t dim() const { return n_; }

 private:
  DenseCholesky() = default;  ///< for from_factor

  /// Start of packed row i: rows 0..i-1 hold 1 + 2 + ... + i entries.
  static constexpr std::size_t row_offset(std::size_t i) {
    return i * (i + 1) / 2;
  }

  std::size_t n_ = 0;
  std::vector<double> l_;  ///< lower triangle, row i at offset i(i+1)/2
};

}  // namespace tsunami
