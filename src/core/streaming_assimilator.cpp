#include "core/streaming_assimilator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"

namespace tsunami {

namespace {

constexpr std::size_t kAccTile = 1024;  // 8 KB: half of a typical L1d

/// Rows per pass of the slab sweeps. Sweeping a 16.6 MB packed slab one
/// 8-row tick at a time on one thread of a 4-vCPU x86-64 host took 41-44 us
/// per tick row by row, and 26-29, 23-26 and 20-23 us in groups of 2, 4 and
/// 8 rows; an AVX2 clone of the 8-row sweep gained only 5% more, and its FMA
/// contraction would move bits.
constexpr std::size_t kRows = 8;

/// m[c0:c1] += z[0] rows[0][c0:c1] + ... + z[kRows-1] rows[kRows-1][c0:c1]
/// (row r at rows + r * stride) — the group kernel both the single-event
/// and the batched accumulation paths are built from. Each output column is
/// loaded once, takes its kRows multiply-adds in r order, and is stored
/// once: per column the same operations in the same order as kRows calls
/// of accumulate_row_tile, at one output load and store instead of kRows.
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

/// out[0:ncols) += rows^T z[0:nrows) over a row-major block of nrows rows
/// (row stride ncols) — the per-tick forecast accumulation, also the offline
/// R products. Column-tiled so the output tile stays in L1 across the row
/// groups; the slab rows are read exactly once. Per output column the adds
/// run j-ascending: the groups in order, then the tail rows. That order is
/// the contract that keeps push_many bitwise equal to push.
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

/// out += slab[p0:p1, :]^T z[p0:p1] over a dense slab (R).
TSUNAMI_HOT_PATH void accumulate_block_rows(const Matrix& slab,
                                            const std::vector<double>& z,
                                            std::size_t p0, std::size_t p1,
                                            std::vector<double>& out) {
  accumulate_rows(slab.data() + p0 * slab.cols(), p1 - p0, slab.cols(),
                  z.data() + p0, out.data());
}

/// Batched variant: outs[k] += rows^T zs[k][0:nrows) for all K events in
/// ONE sweep over the rows — each row group (the bandwidth cost) is loaded
/// once and reused K times. Tiles are independent (disjoint output
/// columns), so they run in parallel; within a tile every event takes the
/// same group kernel calls as in accumulate_rows, in the same order, so
/// every (k, c) sees the same j-ascending additions as a serial push.
TSUNAMI_HOT_PATH void accumulate_rows_many(const double* rows,
                                           std::size_t nrows,
                                           std::size_t ncols,
                                           std::span<const double* const> zs,
                                           std::span<double* const> outs) {
  const std::size_t nk = zs.size();
  const std::size_t ntiles = (ncols + kAccTile - 1) / kAccTile;
  parallel_for_min(ntiles, 2, [&](std::size_t tile) {
    const std::size_t c0 = tile * kAccTile;
    const std::size_t c1 = std::min(c0 + kAccTile, ncols);
    std::size_t j = 0;
    for (; j + kRows <= nrows; j += kRows) {
      for (std::size_t k = 0; k < nk; ++k)
        accumulate_group_tile(rows + j * ncols, ncols, zs[k] + j, outs[k], c0,
                              c1);
    }
    for (; j < nrows; ++j) {
      for (std::size_t k = 0; k < nk; ++k)
        accumulate_row_tile(rows + j * ncols, zs[k][j], outs[k], c0, c1);
    }
  });
}

}  // namespace

StreamingEngine::StreamingEngine(const Posterior& posterior,
                                 const QoiPredictor& predictor,
                                 const StreamingOptions& options,
                                 TimerRegistry* timers,
                                 std::shared_ptr<const void> lifetime)
    : StreamingEngine(posterior, predictor, options, timers,
                      std::move(lifetime), SensorMask()) {}

StreamingEngine::StreamingEngine(const Posterior& posterior,
                                 const QoiPredictor& predictor,
                                 const StreamingOptions& options,
                                 TimerRegistry* timers,
                                 std::shared_ptr<const void> lifetime,
                                 const SensorMask& mask)
    : post_(posterior),
      pred_(predictor),
      lifetime_(lifetime),
      opts_(options),
      nd_(posterior.forward_map().block_rows()),
      nt_(posterior.time_dim()),
      n_(posterior.data_dim()),
      np_(posterior.parameter_dim()),
      nqoi_(predictor.qoi_dim()),
      mask_(mask) {
  if (lifetime == nullptr)
    throw std::invalid_argument("StreamingEngine: null lifetime token");
  if (predictor.data_dim() != n_)
    throw std::invalid_argument(
        "StreamingEngine: posterior/predictor data dim mismatch");

  TRACE_SCOPE("offline", "streaming_precompute");
  Stopwatch watch;
  const DenseCholesky& chol = post_.hessian().cholesky();

  // R = L^{-1} V: the forecast slab. Forward substitution keeps the rows
  // causal, so row block t is exactly what tick t contributes. Computed
  // without materializing V: from Q = V^T K^{-1} and K = L L^T it follows
  // that R = L^{-1} (K Q^T) = L^T Q^T — a triangular product of operators
  // the predictor already retains (no extra Phase 3 storage).
  const Matrix qt = predictor.data_to_qoi().transposed();  // n x nqoi
  const Matrix& l = chol.factor();
  r_ = Matrix(n_, nqoi_);
  // r_(i, :) = sum_{j >= i} L(j, i) Q^T(j, :): the slab sweep over rows
  // [i, n) of Q^T, its coefficients column i of L gathered into slot-local
  // scratch.
  std::vector<double> coeffs(static_cast<std::size_t>(num_threads()) * n_);
  parallel_for_slotted(n_, 8, [&](std::size_t i, std::size_t slot) {
    double* col = coeffs.data() + slot * n_;
    for (std::size_t j = i; j < n_; ++j) col[j - i] = l(j, i);
    accumulate_rows(qt.data() + i * nqoi_, n_ - i, nqoi_, col,
                    r_.row(i).data());
  });

  // Credible-interval schedule: diag Gamma_post(q, t) = diag Gamma_post(q) +
  // the *tail* sum of squares down the columns of R (the information the
  // ticks still to come would add). Accumulating from the final tick makes
  // the schedule exactly monotone and lands exactly on the batch posterior
  // width. Data-independent — one table for every event this network will
  // ever stream.
  const Matrix& cov_q = predictor.qoi_covariance();
  std_schedule_ = Matrix(nt_ + 1, nqoi_);
  std::vector<double> tail(nqoi_, 0.0);
  for (std::size_t i = 0; i < nqoi_; ++i)
    std_schedule_(nt_, i) = std::sqrt(std::max(0.0, cov_q(i, i)));
  for (std::size_t t = nt_; t-- > 0;) {
    for (std::size_t j = t * nd_; j < (t + 1) * nd_; ++j) {
      const auto row = r_.row(j);
      for (std::size_t i = 0; i < nqoi_; ++i) tail[i] += row[i] * row[i];
    }
    for (std::size_t i = 0; i < nqoi_; ++i)
      std_schedule_(t, i) =
          std::sqrt(std::max(0.0, cov_q(i, i)) + tail[i]);
  }

  if (mask_.any()) apply_mask();

  precompute_seconds_ = watch.seconds();
  if (timers) timers->add("streaming: precompute", precompute_seconds_);
}

void StreamingEngine::check_alive(const char* what) const {
  if (!operators_alive())
    throw std::logic_error(
        std::string(what) +
        ": the twin that owns this engine's operators was destroyed or its "
        "offline state was rebuilt — rebuild the engine via make_streaming");
}

StreamingAssimilator StreamingEngine::start() const {
  check_alive("StreamingEngine::start");
  return StreamingAssimilator(*this);
}

StreamingEngine StreamingEngine::reduced(const SensorMask& mask) const {
  check_alive("StreamingEngine::reduced");
  if (mask.size() != nd_)
    throw std::invalid_argument(
        "StreamingEngine::reduced: mask size != channel count");
  return StreamingEngine(post_, pred_, opts_, nullptr, lifetime_.lock(), mask);
}

void StreamingEngine::apply_mask() {
  TRACE_SCOPE("offline", "streaming_reduce");
  const Matrix& l = post_.hessian().cholesky().factor();

  // Decoupled factor: every dropped channel's rows of K become pure-noise
  // rows via the O(r n^2) rank-2 factor edits — NOT a refactorization. The
  // copy is owned here; the posterior's hessian (shared with the full
  // engine and every session on it) is untouched.
  Matrix l_copy = l;
  reduced_hess_ = std::make_unique<DataSpaceHessian>(
      DataSpaceHessian::from_factor(std::move(l_copy),
                                    post_.hessian().noise()));
  reduced_hess_->decouple_channels(mask_, nd_);

  // Rebuild the forecast slab against the decoupled factor. The slab V =
  // F Gamma_prior Fq^T is recovered from the full precompute (V = L R since
  // R = L^{-1} V); its dropped rows are zeroed (those rows of F no longer
  // exist) and the reduced R' = L'^{-1} V' re-solved column-free via the
  // multi-RHS forward substitution.
  Matrix v(n_, nqoi_);
  parallel_for_min(n_, 8, [&](std::size_t i) {
    if (mask_.masked(i % nd_)) return;  // row dies below; skip the product
    // v(i, :) = sum_{j <= i} L(i, j) R(j, :), coefficients row i of L.
    accumulate_rows(r_.data(), i + 1, nqoi_, l.row(i).data(), v.row(i).data());
  });
  reduced_hess_->cholesky().forward_solve_in_place(v);
  r_ = std::move(v);

  // Credible-interval schedule of the reduced network: the prior QoI
  // variance (schedule row 0, data-independent hence mask-independent)
  // minus the running information sum down the reduced R'. Dropped rows of
  // R' are exactly zero, so they contribute nothing — the schedule stops
  // shrinking where the network stops observing.
  std::vector<double> prior_var(nqoi_), acc(nqoi_, 0.0);
  for (std::size_t i = 0; i < nqoi_; ++i)
    prior_var[i] = std_schedule_(0, i) * std_schedule_(0, i);
  for (std::size_t t = 0; t < nt_; ++t) {
    for (std::size_t j = t * nd_; j < (t + 1) * nd_; ++j) {
      const auto row = r_.row(j);
      for (std::size_t i = 0; i < nqoi_; ++i) acc[i] += row[i] * row[i];
    }
    for (std::size_t i = 0; i < nqoi_; ++i)
      std_schedule_(t + 1, i) =
          std::sqrt(std::max(0.0, prior_var[i] - acc[i]));
  }
}

std::span<const double> StreamingEngine::stddev_after(std::size_t ticks) const {
  if (ticks > nt_)
    throw std::out_of_range("StreamingEngine::stddev_after: tick out of range");
  return std_schedule_.row(ticks);
}

StreamingAssimilator::StreamingAssimilator(const StreamingEngine& engine)
    : eng_(engine),
      z_(engine.data_dim(), 0.0),
      q_mean_(engine.qoi_dim(), 0.0),
      mask_(engine.block_size()) {}

TSUNAMI_HOT_PATH void StreamingAssimilator::stage_block(
    std::span<const double> d_block, std::span<const std::uint8_t> valid,
    std::size_t p0) {
  const std::size_t nd = eng_.block_size();
  if (!eng_.is_reduced() && !mask_.any() && valid.empty()) {
    // Healthy path: bitwise-identical to the pre-degraded-mode copy.
    std::copy(d_block.begin(), d_block.end(),
              z_.begin() + static_cast<std::ptrdiff_t>(p0));
    return;
  }
  // Dead channels enter z as zeros. Mathematically their value is
  // irrelevant — the Woodbury projection is exactly independent of the
  // dropped entries — but zeros keep replays bitwise deterministic and stop
  // garbage samples from ever touching state.
  for (std::size_t c = 0; c < nd; ++c) {
    const bool dead = (eng_.is_reduced() && eng_.mask().masked(c)) ||
                      mask_.masked(c) ||
                      (!valid.empty() && valid[c] == 0);
    z_[p0 + c] = dead ? 0.0 : d_block[c];
  }
}

bool StreamingAssimilator::tick_has_new_dead(
    std::span<const std::uint8_t> valid) const {
  if (mask_.any()) return true;
  if (!valid.empty()) {
    for (std::size_t c = 0; c < valid.size(); ++c) {
      if (valid[c] != 0) continue;
      if (eng_.is_reduced() && eng_.mask().masked(c)) continue;
      return true;
    }
  }
  return false;
}

TSUNAMI_HOT_PATH void StreamingAssimilator::push(
    std::size_t tick, std::span<const double> d_block) {
  push(tick, d_block, {});
}

TSUNAMI_HOT_PATH void StreamingAssimilator::push(
    std::size_t tick, std::span<const double> d_block,
    std::span<const std::uint8_t> valid) {
  eng_.check_alive("StreamingAssimilator::push");
  if (complete())
    throw std::logic_error("StreamingAssimilator::push: event window full");
  if (tick != t_)
    throw std::invalid_argument(
        "StreamingAssimilator::push: out-of-order tick");
  if (d_block.size() != eng_.block_size())
    throw std::invalid_argument(
        "StreamingAssimilator::push: block size mismatch");
  if (!valid.empty() && valid.size() != eng_.block_size())
    throw std::invalid_argument(
        "StreamingAssimilator::push: validity bitmap size mismatch");

  TRACE_SCOPE("stream", "push");
  Stopwatch watch;
  const std::size_t p0 = t_ * eng_.block_size();
  const std::size_t p1 = p0 + eng_.block_size();
  stage_block(d_block, valid, p0);
  // Extend z = L^{-1} d by one block row (causality of forward substitution).
  eng_.chol().forward_solve_range(z_, p0, p1);
  // Extend the dead-row projection over the new rows before anything reads
  // it (the accumulator is projection-agnostic: corrections are applied at
  // forecast/map read time, never folded into q_mean_).
  if (!dead_.empty() || tick_has_new_dead(valid))
    advance_degraded(p0, p1, valid);
  // Accumulate the new block's contribution to the forecast in row groups
  // (one output load and store per 8 sensor rows, not per row).
  accumulate_block_rows(eng_.r_, z_, p0, p1, q_mean_);
  ++t_;
  last_push_seconds_ = watch.seconds();
  total_push_seconds_ += last_push_seconds_;
}

// ---- degraded-mode projection ----------------------------------------------
//
// Dropping observation rows D from the inference is the infinite-noise limit
// of their noise model, and Woodbury gives the exact reduced-network solve
// in terms of the UNCHANGED shared factor L:
//
//   (K')^{-1} = K^{-1} - K^{-1} E S^{-1} E^T K^{-1},  E = [e_p : p in D],
//   S = E^T K^{-1} E.
//
// With Y = L^{-1} E every needed contraction is causal and prefix-exact,
// because forward substitution commutes with truncation:
//
//   h = E^T K_p^{-1} d_p = Y_p^T z_p          (r)
//   S_p = Y_p^T Y_p                           (r x r, chol maintained)
//   G = V^T K_p^{-1} E = R_p^T Y_p            (nqoi x r, per-column in g)
//
// so the corrected posterior reads  q' = q_mean - G S^{-1} h  and
// var' = schedule^2 + diag(G S^{-1} G^T), and a MAP read solves from
// z - Y S^{-1} h: read-time corrections, with q_mean_/z_ never mutated —
// which is what makes a drop/restore cycle return the assimilator bitwise
// to its pristine state.
//
// Per tick the state advances incrementally: each Y column extends by one
// forward_solve_range block, chol(S) absorbs one rank-1 update per new
// prefix row (DenseCholesky::rank_update), and a newly dead row appends one
// factor row (DenseCholesky::append_row) — O(Nd r^2 + Nd r nqoi) on top of
// a healthy push, no refactorization anywhere.

TSUNAMI_HOT_PATH void StreamingAssimilator::advance_degraded(
    std::size_t p0, std::size_t p1, std::span<const std::uint8_t> valid) {
  const DenseCholesky& chol = eng_.chol();
  const std::size_t r0 = dead_.size();
  // (a) Extend existing columns causally, plus their h/g accumulators.
  for (std::size_t j = 0; j < r0; ++j) {
    DeadRow& dr = dead_[j];
    chol.forward_solve_range(dr.y, p0, p1);
    for (std::size_t i = p0; i < p1; ++i) h_[j] += dr.y[i] * z_[i];
    accumulate_block_rows(eng_.r_, dr.y, p0, p1, dr.g);
  }
  // (b) chol(S) absorbs the new prefix rows: one rank-1 update per row,
  // over the pre-existing columns (appended columns compute their own full
  // dot products below — fixed order, so replays are bitwise identical).
  if (r0 > 0) {
    u_scratch_.resize(r0);  // lint: allow(hot-path-alloc) grow-once scratch
    for (std::size_t i = p0; i < p1; ++i) {
      for (std::size_t j = 0; j < r0; ++j) u_scratch_[j] = dead_[j].y[i];
      s_chol_->rank_update(u_scratch_);
    }
  }
  // (c) Newly dead rows of this tick (masked channel, or invalid sample),
  // ascending: solve the unit column over [row, p1), append its row to
  // chol(S), seed h and g. Rare control work — a sensor dying — so the
  // allocations below are acceptable on the push path.
  for (std::size_t c = 0; c < eng_.block_size(); ++c) {
    const bool invalid = !valid.empty() && valid[c] == 0;
    if (!mask_.masked(c) && !invalid) continue;
    if (eng_.is_reduced() && eng_.mask().masked(c)) continue;  // already gone
    const std::size_t row = p0 + c;
    DeadRow dr;
    dr.row = row;
    // The sample at this row was discarded at staging (masked or invalid):
    // no genuine data exists, so restore_sensor cannot resurrect it.
    dr.permanent = true;
    dr.y.assign(eng_.data_dim(), 0.0);  // lint: allow(hot-path-alloc) sensor-death control event
    dr.g.assign(eng_.qoi_dim(), 0.0);   // lint: allow(hot-path-alloc) sensor-death control event
    dr.y[row] = 1.0;
    chol.forward_solve_range(dr.y, row, p1);
    std::vector<double> s_col(dead_.size() + 1, 0.0);  // lint: allow(hot-path-alloc) sensor-death control event
    for (std::size_t j = 0; j < dead_.size(); ++j) {
      double s = 0.0;
      for (std::size_t i = row; i < p1; ++i) s += dead_[j].y[i] * dr.y[i];
      s_col[j] = s;
    }
    double diag = 0.0;
    for (std::size_t i = row; i < p1; ++i) diag += dr.y[i] * dr.y[i];
    s_col[dead_.size()] = diag;
    if (s_chol_) {
      s_chol_->append_row(s_col);
    } else {
      Matrix s1(1, 1);  // lint: allow(hot-path-alloc) sensor-death control event
      s1(0, 0) = diag;
      s_chol_ = std::make_unique<DenseCholesky>(s1);  // lint: allow(hot-path-alloc) sensor-death control event
    }
    double h0 = 0.0;
    for (std::size_t i = row; i < p1; ++i) h0 += dr.y[i] * z_[i];
    h_.push_back(h0);  // lint: allow(hot-path-alloc) sensor-death control event
    accumulate_block_rows(eng_.r_, dr.y, row, p1, dr.g);
    dead_.push_back(std::move(dr));  // lint: allow(hot-path-alloc) sensor-death control event
  }
}

void StreamingAssimilator::rebuild_projections() {
  const std::size_t p = t_ * eng_.block_size();
  const std::size_t r = dead_.size();
  h_.assign(r, 0.0);
  if (r == 0) {
    s_chol_.reset();
    return;
  }
  const DenseCholesky& chol = eng_.chol();
  for (std::size_t j = 0; j < r; ++j) {
    DeadRow& dr = dead_[j];
    dr.y.assign(eng_.data_dim(), 0.0);
    dr.g.assign(eng_.qoi_dim(), 0.0);
    dr.y[dr.row] = 1.0;
    chol.forward_solve_range(dr.y, dr.row, p);
    accumulate_block_rows(eng_.r_, dr.y, dr.row, p, dr.g);
    for (std::size_t i = dr.row; i < p; ++i) h_[j] += dr.y[i] * z_[i];
  }
  // S = Y^T Y, exploiting causal sparsity (column j is zero above row_j;
  // dead_ is ascending, so the j<=k entry integrates over [row_k, p)).
  Matrix s(r, r);
  for (std::size_t j = 0; j < r; ++j) {
    for (std::size_t k = j; k < r; ++k) {
      double acc = 0.0;
      for (std::size_t i = dead_[k].row; i < p; ++i)
        acc += dead_[j].y[i] * dead_[k].y[i];
      s(j, k) = acc;
      s(k, j) = acc;
    }
  }
  // Always SPD: the columns of Y are triangular with nonzero leading
  // entries 1/L[row,row] at distinct rows, hence linearly independent.
  s_chol_ = std::make_unique<DenseCholesky>(s);
}

void StreamingAssimilator::compute_projection_coeffs() const {
  c_scratch_.assign(h_.begin(), h_.end());  // lint: allow(hot-path-alloc) capacity reuse
  if (!h_.empty()) s_chol_->solve_in_place(std::span<double>(c_scratch_));
}

void StreamingAssimilator::drop_sensor(std::size_t s) {
  const std::size_t nd = eng_.block_size();
  if (s >= nd)
    throw std::out_of_range(
        "StreamingAssimilator::drop_sensor: channel out of range");
  if (eng_.is_reduced() && eng_.mask().masked(s))
    throw std::invalid_argument(
        "StreamingAssimilator::drop_sensor: channel not part of this "
        "engine's (already reduced) network");
  if (mask_.masked(s)) return;
  mask_.drop(s);
  // Retroactively project every row this channel contributed: rows pushed
  // invalid are already dead (and permanent); the rest carried genuine data
  // — they die restorably, with their z entries left in place.
  for (std::size_t t = 0; t < t_; ++t) {
    const std::size_t row = t * nd + s;
    bool already = false;
    for (const DeadRow& dr : dead_) {
      if (dr.row == row) {
        already = true;
        break;
      }
    }
    if (already) continue;
    DeadRow dr;
    dr.row = row;
    dr.permanent = false;
    dead_.push_back(std::move(dr));
  }
  std::sort(dead_.begin(), dead_.end(),
            [](const DeadRow& a, const DeadRow& b) { return a.row < b.row; });
  rebuild_projections();
}

void StreamingAssimilator::restore_sensor(std::size_t s) {
  if (s >= eng_.block_size())
    throw std::out_of_range(
        "StreamingAssimilator::restore_sensor: channel out of range");
  if (!mask_.masked(s)) return;
  mask_.restore(s);
  // Un-project the rows whose genuine samples still sit in z_. Permanently
  // dead rows (pushed while invalid) stay dead — no data ever arrived.
  const std::size_t nd = eng_.block_size();
  std::erase_if(dead_, [&](const DeadRow& dr) {
    return dr.row % nd == s && !dr.permanent;
  });
  rebuild_projections();
}

TSUNAMI_HOT_PATH void StreamingAssimilator::push_many(
    std::span<StreamingAssimilator* const> events, std::size_t tick,
    std::span<const std::span<const double>> blocks) {
  const std::size_t nk = events.size();
  if (nk == 0) return;
  if (blocks.size() != nk)
    throw std::invalid_argument(
        "StreamingAssimilator::push_many: events/blocks count mismatch");
  if (nk == 1) {
    events[0]->push(tick, blocks[0]);
    return;
  }
  const StreamingEngine& eng = events[0]->eng_;
  eng.check_alive("StreamingAssimilator::push_many");
  const std::size_t nd = eng.block_size();
  for (std::size_t k = 0; k < nk; ++k) {
    StreamingAssimilator* ev = events[k];
    if (&ev->eng_ != &eng)
      throw std::invalid_argument(
          "StreamingAssimilator::push_many: events must share one engine");
    if (ev->complete())
      throw std::logic_error(
          "StreamingAssimilator::push_many: event window full");
    if (ev->t_ != tick)
      throw std::invalid_argument(
          "StreamingAssimilator::push_many: events not tick-aligned");
    if (blocks[k].size() != nd)
      throw std::invalid_argument(
          "StreamingAssimilator::push_many: block size mismatch");
    for (std::size_t j = 0; j < k; ++j) {
      if (events[j] == ev)
        throw std::invalid_argument(
            "StreamingAssimilator::push_many: duplicate event");
    }
  }

  TRACE_SCOPE("stream", "push_many");
  Stopwatch watch;
  const std::size_t p0 = tick * nd;
  const std::size_t p1 = p0 + nd;
  // Per-event forward-substitution extension: independent events, so the
  // batch dimension parallelizes freely (each body touches only event k).
  // Degraded events also advance their private projection state here — it
  // reads only this event's z and the shared immutable factor, so the
  // per-(event, output) operation order is identical to a serial push.
  parallel_for_min(nk, 2, [&](std::size_t k) {
    StreamingAssimilator* ev = events[k];
    ev->stage_block(blocks[k], {}, p0);
    eng.chol().forward_solve_range(ev->z_, p0, p1);
    if (!ev->dead_.empty() || ev->tick_has_new_dead({}))
      ev->advance_degraded(p0, p1, {});
  });

  // One sweep over R's new block rows serves every event. The pointer
  // tables live in thread_local scratch that grows to the largest batch
  // this thread has seen and is then reused, so steady-state batched
  // pushes stay allocation-free (proved by tests/test_debug.cpp).
  static thread_local std::vector<const double*> zs;
  static thread_local std::vector<double*> q_outs;
  zs.resize(nk);      // lint: allow(hot-path-alloc) grow-once scratch
  q_outs.resize(nk);  // lint: allow(hot-path-alloc) grow-once scratch
  for (std::size_t k = 0; k < nk; ++k) {
    zs[k] = events[k]->z_.data() + p0;
    q_outs[k] = events[k]->q_mean_.data();
  }
  accumulate_rows_many(eng.r_.data() + p0 * eng.nqoi_, nd, eng.nqoi_,
                       std::span<const double* const>(zs),
                       std::span<double* const>(q_outs));

  const double per_event = watch.seconds() / static_cast<double>(nk);
  for (std::size_t k = 0; k < nk; ++k) {
    StreamingAssimilator* ev = events[k];
    ++ev->t_;
    ev->last_push_seconds_ = per_event;
    ev->total_push_seconds_ += per_event;
  }
}

TSUNAMI_HOT_PATH void StreamingAssimilator::forecast_into(Forecast& fc) const {
  eng_.check_alive("StreamingAssimilator::forecast");
  fc.num_gauges = eng_.pred_.num_gauges();
  fc.num_times = eng_.pred_.num_times();
  // assign/resize reuse existing capacity: after the first call on a given
  // Forecast this is copy-only — the per-tick publish path never allocates.
  fc.mean.assign(q_mean_.begin(), q_mean_.end());  // lint: allow(hot-path-alloc) capacity reuse
  const auto sd = eng_.stddev_after(t_);
  fc.stddev.assign(sd.begin(), sd.end());  // lint: allow(hot-path-alloc) capacity reuse
  fc.degraded = degraded();
  fc.dropped_channels = dropped_channels();
  if (!dead_.empty()) {
    // Reduced-network corrections (see the projection block comment):
    //   mean'   = q_mean - G S^{-1} h
    //   var'(i) = schedule(i)^2 + G[i,:] S^{-1} G[i,:]^T
    // O(r^2 nqoi) on top of the copy — no slab is touched.
    compute_projection_coeffs();
    const std::size_t r = dead_.size();
    var_scratch_.resize(r);  // lint: allow(hot-path-alloc) grow-once scratch
    for (std::size_t i = 0; i < q_mean_.size(); ++i) {
      double mean_corr = 0.0;
      for (std::size_t j = 0; j < r; ++j) {
        const double gij = dead_[j].g[i];
        mean_corr += c_scratch_[j] * gij;
        var_scratch_[j] = gij;
      }
      fc.mean[i] -= mean_corr;
      s_chol_->solve_in_place(std::span<double>(var_scratch_));
      double var_add = 0.0;
      for (std::size_t j = 0; j < r; ++j)
        var_add += dead_[j].g[i] * var_scratch_[j];
      fc.stddev[i] = std::sqrt(
          std::max(0.0, fc.stddev[i] * fc.stddev[i] + var_add));
    }
  }
  fc.lower95.resize(q_mean_.size());  // lint: allow(hot-path-alloc) capacity reuse
  fc.upper95.resize(q_mean_.size());  // lint: allow(hot-path-alloc) capacity reuse
  for (std::size_t i = 0; i < q_mean_.size(); ++i) {
    fc.lower95[i] = fc.mean[i] - 1.96 * fc.stddev[i];
    fc.upper95[i] = fc.mean[i] + 1.96 * fc.stddev[i];
  }
}

Forecast StreamingAssimilator::forecast() const {
  Forecast fc;
  forecast_into(fc);
  return fc;
}

const std::vector<double>& StreamingAssimilator::map_estimate() const {
  if (!eng_.tracks_map())
    throw std::logic_error(
        "StreamingAssimilator::map_estimate: engine built with track_map off "
        "(use map_snapshot)");
  eng_.check_alive("StreamingAssimilator::map_estimate");
  // Sized on the first read; reset() keeps the capacity, so a session on a
  // MAP-tracking engine pays for the buffer only if it reads the MAP.
  m_map_.resize(eng_.parameter_dim());
  map_into(std::span<double>(m_map_));
  return m_map_;
}

std::vector<double> StreamingAssimilator::map_snapshot() const {
  eng_.check_alive("StreamingAssimilator::map_snapshot");
  std::vector<double> m(eng_.parameter_dim());
  map_into(std::span<double>(m));
  return m;
}

void StreamingAssimilator::map_into(std::span<double> m) const {
  const std::size_t p = t_ * eng_.block_size();
  // u = K_p^{-1} d_p: the forward half is already cached in z; finish with
  // the prefix backward substitution, then lift through G* on the prefix.
  // The scratch is sized for the whole window once, so no read allocates
  // after the first; only its first p entries are read or written.
  snapshot_u_.resize(eng_.data_dim());
  std::copy(z_.begin(), z_.begin() + static_cast<std::ptrdiff_t>(p),
            snapshot_u_.begin());
  if (!dead_.empty()) {
    // Project the dead rows out of the forward solve: u = z - Y S^{-1} h.
    // The completed solve is then exactly zero on every dead row, so the
    // G* lift below only ever sees the surviving network's rows.
    compute_projection_coeffs();
    for (std::size_t j = 0; j < dead_.size(); ++j) {
      const DeadRow& dr = dead_[j];
      const double cj = c_scratch_[j];
      for (std::size_t i = dr.row; i < p; ++i)
        snapshot_u_[i] -= cj * dr.y[i];
    }
  }
  eng_.chol().backward_solve_prefix(snapshot_u_, p);
  eng_.post_.apply_gstar_prefix(snapshot_u_, t_, m, ws_);
}

void StreamingAssimilator::reset() {
  t_ = 0;
  std::fill(z_.begin(), z_.end(), 0.0);
  std::fill(q_mean_.begin(), q_mean_.end(), 0.0);
  mask_ = SensorMask(eng_.block_size());
  dead_.clear();
  s_chol_.reset();
  h_.clear();
  last_push_seconds_ = 0.0;
  total_push_seconds_ = 0.0;
}

}  // namespace tsunami
