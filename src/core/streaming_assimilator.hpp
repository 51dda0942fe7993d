#pragma once

// Streaming assimilation engine: incremental per-tick inference and rolling
// forecasts as observations arrive — the real-time front door of Phase 4.
//
// The batch online phase (DigitalTwin::infer) consumes the complete
// Nt-interval data vector after the event is over. A warning center does not
// have that luxury: sensor packets arrive one observation interval at a
// time, and the forecast must sharpen with each arrival (Henneking, Venkat &
// Ghattas, arXiv:2501.14911; Nomura et al., arXiv:2407.03631). This module
// turns the already-factorized offline operators into an engine that ingests
// one interval per push() and maintains the *exact* truncated posterior —
// not an approximation — at a per-tick cost far below a full re-solve.
//
// The structural facts that make this work (data stored time-major):
//
//  1. The observations available at tick t form a prefix d_t of d_obs, and
//     the truncated Hessian K_t = Gamma_noise + F_t Gamma_prior F_t^T is the
//     leading (t Nd) x (t Nd) principal submatrix of the full K.
//  2. Cholesky commutes with taking leading principal submatrices: the
//     factor of K_t is the leading block L_t of the offline factor L. No
//     refactorization, ever.
//  3. Forward substitution is causal: z = L^{-1} d satisfies z[0:p] =
//     L_p^{-1} d[0:p]. Each tick only *extends* the cached z by one block
//     row (DenseCholesky::forward_solve_range) — O(Nd^2 t) work.
//  4. The non-causal backward substitution is eliminated from the forecast
//     by baking L^{-T} into the offline QoI operator: with
//         R = L^{-1} V            (V = F Gamma_prior Fq^T),
//     the truncated posterior of the QoI at tick t is a running sum over
//     block rows,
//         q_map(t)         = R[0:p,:]^T z[0:p]      (p = t Nd),
//         Gamma_post(q, t) = W - R[0:p,:]^T R[0:p,:],
//     because the leading block of the inverse of a triangular matrix is
//     the inverse of its leading block. Each push adds one block row to
//     q_map.
//  5. The parameter-space MAP m_map(t) = Gamma_prior F_p^T K_p^{-1} d_p is
//     computed on read, never kept: the read finishes the solve with the
//     prefix backward substitution u = L_p^{-T} z[0:p] and lifts u through
//     the causal prefix of G* = Gamma_prior F^T (Posterior::
//     apply_gstar_prefix) — O(p^2) plus one FFT transpose and t prior
//     applies, and no parameter-space operator stored offline. Parameter
//     blocks the stream has not reached hold exactly 0, the prior mean.
//
// R is a Phase 3 product (QoiPredictor::forecast_slab), shipped in the
// artifact bundle: it costs O(n^2 qoi_dim) flops to derive and O(n qoi_dim)
// bytes to read. The credible-interval schedule Gamma_post(q, t) is
// data-independent, so the engine precomputes the whole stddev-vs-tick
// table once; streaming an event costs only the forward-substitution
// extension plus one R block-row matvec per tick, and a MAP read costs one
// backward solve and one lift.
//
// Split of responsibilities:
//   StreamingEngine      — immutable per-network precompute (the CI
//                          schedule; R' of a reduced() engine); shared by
//                          any number of concurrent event streams
//                          (ScenarioBank::sweep).
//   StreamingAssimilator — per-event mutable state (z, rolling q_map);
//                          cheap to create, reset, and replay.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/forecast.hpp"
#include "core/posterior.hpp"
#include "core/sensor_mask.hpp"
#include "linalg/dense.hpp"
#include "util/hot_path.hpp"
#include "util/timer.hpp"

namespace tsunami {

struct StreamingOptions {
  /// Permits map_estimate(); without it that call throws std::logic_error.
  /// It no longer changes what the engine builds: every engine serves the
  /// MAP on read from the causal snapshot (map_snapshot()), so a tracking
  /// and a lean engine hold the same operators and give the same bits. It
  /// stays only because the benchmark harness still sets it and reads
  /// tracks_map(); ROADMAP item 1 deletes it.
  bool track_map = true;
};

class StreamingAssimilator;

/// Immutable streaming precompute over one twin's offline operators. The
/// posterior/predictor (and the twin owning them) must outlive the engine —
/// and unlike the pre-guard design, violating that is now a clean throw,
/// not undefined behavior: engines built through DigitalTwin::make_streaming
/// carry a lifetime token tied to the twin's offline state, and every entry
/// point that would slice dangling posterior state checks it first. A twin
/// that is destroyed OR whose offline phases are re-run (replacing the
/// operators the engine reads) expires the token.
class StreamingEngine {
 public:
  /// Requires completed offline phases (the factorized Hessian lives in the
  /// posterior, R in the predictor; both must come from one twin). Builds
  /// the credible-interval schedule and records its time as a "streaming:
  /// precompute" timer sample. `lifetime`
  /// is the owner's validity token (DigitalTwin passes its offline-state
  /// epoch): when the token expires, start()/push()/forecast()/map_snapshot()
  /// throw std::logic_error instead of dereferencing freed operators. A null
  /// token throws std::invalid_argument.
  StreamingEngine(const Posterior& posterior, const QoiPredictor& predictor,
                  const StreamingOptions& options, TimerRegistry* timers,
                  std::shared_ptr<const void> lifetime);

  /// Begin assimilating a new event.
  [[nodiscard]] StreamingAssimilator start() const;

  /// From-scratch reduced-network engine: the streaming precompute rebuilt
  /// as if the masked channels never existed. The dropped rows of the
  /// data-space Hessian are decoupled to pure noise via the O(r n^2)
  /// rank-2 factor edits (DataSpaceHessian::decouple_channels), R re-solved
  /// against the decoupled factor into an R' the engine owns, and the
  /// credible-interval schedule rebuilt — so assimilators started from the result compute the exact
  /// posterior of the surviving network (their MAP reads solve against the
  /// decoupled factor too). This is the oracle that StreamingAssimilator::
  /// drop_sensor's mid-stream projection is tested against, and the
  /// refactorize-from-scratch baseline bench_degraded times. Works on warm
  /// (factor-only) hessians: only the factor is read.
  [[nodiscard]] StreamingEngine reduced(const SensorMask& mask) const;

  /// The channel mask this engine was reduced with (empty/all-live for a
  /// full-network engine).
  [[nodiscard]] const SensorMask& mask() const { return mask_; }
  [[nodiscard]] bool is_reduced() const { return reduced_hess_ != nullptr; }

  // ---- dimensions ----------------------------------------------------------
  [[nodiscard]] std::size_t num_ticks() const { return nt_; }        ///< Nt
  [[nodiscard]] std::size_t block_size() const { return nd_; }       ///< Nd
  [[nodiscard]] std::size_t data_dim() const { return n_; }
  [[nodiscard]] std::size_t parameter_dim() const { return np_; }
  [[nodiscard]] std::size_t qoi_dim() const { return nqoi_; }

  [[nodiscard]] bool tracks_map() const { return opts_.track_map; }
  [[nodiscard]] double precompute_seconds() const { return precompute_seconds_; }

  /// Posterior QoI stddev after `ticks` observation intervals (0 = prior).
  /// Data-independent, hence precomputed for every tick: this is the
  /// credible-interval shrink schedule of the sensor network itself.
  [[nodiscard]] std::span<const double> stddev_after(std::size_t ticks) const;

  [[nodiscard]] const Posterior& posterior() const { return post_; }

  /// True while the operators this engine slices are guaranteed alive.
  [[nodiscard]] bool operators_alive() const { return !lifetime_.expired(); }

 private:
  friend class StreamingAssimilator;

  /// Throws std::logic_error if the owning twin's offline state is gone.
  void check_alive(const char* what) const;

  /// The factor every streaming solve runs against: the posterior's on a
  /// full-network engine, the decoupled copy on a reduced() one.
  [[nodiscard]] const DenseCholesky& chol() const {
    return reduced_hess_ ? reduced_hess_->cholesky()
                         : post_.hessian().cholesky();
  }

  /// The forecast slab every push sweeps: the predictor's R on a
  /// full-network engine, the re-solved R' on a reduced() one.
  [[nodiscard]] const Matrix& slab() const {
    return reduced_hess_ ? r_ : pred_.forecast_slab();
  }

  /// The precompute of a network without the channels `mask` drops (an
  /// empty mask: the full network). reduced() passes its mask here.
  StreamingEngine(const Posterior& posterior, const QoiPredictor& predictor,
                  const StreamingOptions& options, TimerRegistry* timers,
                  std::shared_ptr<const void> lifetime,
                  const SensorMask& mask);

  /// Decouple the masked channels and build R' and the schedule against
  /// the decoupled factor.
  void apply_mask();

  const Posterior& post_;
  const QoiPredictor& pred_;
  std::weak_ptr<const void> lifetime_;
  StreamingOptions opts_;
  std::size_t nd_, nt_, n_, np_, nqoi_;
  Matrix r_;             ///< R' = L'^{-1} V' of a reduced() engine only
  Matrix std_schedule_;  ///< (Nt + 1) x nqoi; row t = stddev after t ticks
  SensorMask mask_;      ///< channels this engine was reduced without
  /// Decoupled-factor hessian of a reduced() engine (null on full-network
  /// engines). Owned here: the posterior's hessian stays untouched, so any
  /// number of reduced engines can coexist with the full one.
  std::unique_ptr<DataSpaceHessian> reduced_hess_;
  double precompute_seconds_ = 0.0;
};

/// Per-event streaming state. Value type; create via StreamingEngine::start.
class StreamingAssimilator {
 public:
  explicit StreamingAssimilator(const StreamingEngine& engine);

  /// Ingest observation interval `tick` (must be ticks_received(): intervals
  /// arrive in order at 1 Hz in deployment; gaps/reordering are the
  /// transport layer's problem). `d_block` holds the Nd sensor values of
  /// that interval. Extends z and q_map incrementally; the MAP is computed
  /// only when read (map_estimate(), map_snapshot()). A push does not time
  /// itself: a caller that wants its latency reads the clock around it (the
  /// service's drain stamps, ScenarioBank::sweep's Stopwatch).
  TSUNAMI_HOT_PATH void push(std::size_t tick, std::span<const double> d_block);

  /// As push(), but with a per-channel validity bitmap (`valid[c] != 0`
  /// means channel c's sample is usable; empty = all valid). Invalid
  /// channels are projected out of the posterior *exactly* — equivalent to
  /// marginalizing their noise to infinity, not to assimilating zeros — via
  /// the per-row Woodbury projection documented in the .cpp. A whole-block
  /// loss (all channels invalid) keeps the stream advancing with the tick
  /// contributing no information. Rows pushed invalid are permanently dead:
  /// the sample never existed, so restore_sensor cannot resurrect them.
  TSUNAMI_HOT_PATH void push(std::size_t tick, std::span<const double> d_block,
                             std::span<const std::uint8_t> valid);

  /// Push interval `tick` to K events, checked as one batch: blocks[k] is
  /// event k's Nd-vector, every event must share one engine and sit at
  /// `tick`, and no event may appear twice. Every check runs before the
  /// first push, so a batch that throws leaves every event as it was. Then
  /// it is push(tick, blocks[k]) for k = 0..K-1, with the same bits. It
  /// stays only because the benchmark harness still calls it; ROADMAP item
  /// 1 retires it.
  TSUNAMI_HOT_PATH static void push_many(
      std::span<StreamingAssimilator* const> events, std::size_t tick,
      std::span<const std::span<const double>> blocks);

  // ---- degraded-mode control plane (ISSUE 10) ------------------------------
  // Sensor dropout does NOT touch the engine: the shared slabs and factor
  // stay immutable (other sessions keep streaming through them), and this
  // assimilator instead maintains an exact low-rank Woodbury correction over
  // its dead observation rows, advanced incrementally per tick via the
  // rank-1 Cholesky update / append primitives. See the .cpp for the math.

  /// Drop channel `s` mid-stream: every row it contributed so far is
  /// projected out retroactively and future pushes ignore it — from the next
  /// forecast on, the posterior is exactly the one a from-scratch
  /// assimilator on the reduced network would compute. Idempotent.
  void drop_sensor(std::size_t s);

  /// Re-admit channel `s`: rows it pushed while live (before drop_sensor)
  /// rejoin the posterior — their genuine data was kept — and future pushes
  /// assimilate it again. Rows pushed while dropped stay dead (no data ever
  /// arrived). A drop/restore cycle with no intervening pushes restores the
  /// assimilator bitwise. Idempotent.
  void restore_sensor(std::size_t s);

  /// True when any channel is masked or any observation row is projected
  /// out — i.e. forecasts are exact posteriors over a reduced network.
  [[nodiscard]] bool degraded() const {
    return !dead_.empty() || mask_.any();
  }
  [[nodiscard]] std::size_t dropped_channels() const {
    return mask_.dropped_count();
  }
  [[nodiscard]] const SensorMask& sensor_mask() const { return mask_; }

  [[nodiscard]] std::size_t ticks_received() const { return t_; }
  [[nodiscard]] bool complete() const { return t_ == eng_.num_ticks(); }

  /// Rolling QoI forecast: the exact posterior mean given the data so far,
  /// with credible intervals from the engine's precomputed schedule. At the
  /// final tick of a healthy stream this is DigitalTwin::infer's forecast on
  /// the full vector, bit for bit (the kernels' range contract).
  [[nodiscard]] Forecast forecast() const;

  /// As forecast(), but writes into a caller-owned Forecast whose buffers
  /// are reused — the per-tick publish path of the warning service, free of
  /// allocation after the first call.
  TSUNAMI_HOT_PATH void forecast_into(Forecast& fc) const;

  /// Rolling posterior mean of the QoI (the raw accumulator behind
  /// forecast(); no allocation).
  [[nodiscard]] const std::vector<double>& qoi_mean() const { return q_mean_; }

  /// MAP estimate m_map(t) after the ticks received so far. Requires an
  /// engine with track_map (throws std::logic_error otherwise). Each call
  /// recomputes it as map_snapshot() does, with the same bits, into a
  /// per-assimilator buffer sized on the first call, so later calls do not
  /// allocate. O(p^2) plus one FFT transpose and t prior applies: callers on
  /// the hot publish path should prefer forecast_into, which never needs
  /// it. When degraded, the dead rows are projected out first. Logically
  /// const but writes the buffer: single-caller by contract, like
  /// map_snapshot(). The reference stays valid, but goes stale at the next
  /// push; read again to see it.
  [[nodiscard]] const std::vector<double>& map_estimate() const;

  /// The same MAP estimate returned by value, on any engine: the prefix
  /// backward substitution and the causal G* lift, which need no baked
  /// parameter-space operator. Only the returned vector allocates.
  [[nodiscard]] std::vector<double> map_snapshot() const;

  [[nodiscard]] const StreamingEngine& engine() const { return eng_; }

  /// Forget the event (state back to tick 0); the engine is untouched.
  void reset();

 private:
  /// One projected-out observation row. `y` is the causal unit solve
  /// L^{-1} e_row (meaningful over [row, p)); `g` accumulates R[row:p,:]^T y
  /// — the row's influence on the QoI mean. Both extend per tick alongside
  /// z, so corrections never re-walk the past.
  struct DeadRow {
    std::size_t row = 0;
    /// Pushed with invalid/absent data: no genuine sample exists in z, so
    /// restore_sensor can never resurrect this row.
    bool permanent = false;
    std::vector<double> y;
    std::vector<double> g;
  };

  /// Copy a tick block into z, zeroing dead channels (engine-reduced,
  /// dropped, or invalid-by-bitmap). Plain copy when nothing is dead.
  TSUNAMI_HOT_PATH void stage_block(std::span<const double> d_block,
                                    std::span<const std::uint8_t> valid,
                                    std::size_t p0);
  /// Returns true if the staged tick introduces new dead rows.
  [[nodiscard]] bool tick_has_new_dead(
      std::span<const std::uint8_t> valid) const;
  /// Extend the projection state over the freshly solved rows [p0, p1):
  /// grow existing y/g/h columns, rank-1-update chol(S) per row, append
  /// columns for newly dead rows.
  TSUNAMI_HOT_PATH void advance_degraded(std::size_t p0, std::size_t p1,
                                         std::span<const std::uint8_t> valid);
  /// Recompute the whole projection (y, g, h, chol(S)) from dead_'s
  /// row/permanent fields at the current prefix — the control-event path
  /// behind drop_sensor/restore_sensor.
  void rebuild_projections();
  /// c = S^{-1} h into c_scratch_ (empty when not degraded).
  void compute_projection_coeffs() const;
  /// m = m_map(t), the body of map_estimate() and map_snapshot(): project
  /// the dead rows out of z, finish with the prefix backward solve, lift
  /// through the causal G* prefix. m.size() == parameter_dim().
  void map_into(std::span<double> m) const;

  const StreamingEngine& eng_;
  std::size_t t_ = 0;
  std::vector<double> z_;       ///< L^{-1} d prefix, extended causally
  std::vector<double> q_mean_;  ///< R[0:p,:]^T z[0:p]
  /// map_estimate()'s output: empty until the first call sizes it, then
  /// rewritten by every call (mutable like the scratch below).
  mutable std::vector<double> m_map_;

  // Degraded-mode state (all empty on the healthy path).
  SensorMask mask_;              ///< currently dropped channels
  std::vector<DeadRow> dead_;    ///< projected rows, ascending by row
  std::unique_ptr<DenseCholesky> s_chol_;  ///< chol(Y^T Y), r x r
  std::vector<double> h_;        ///< Y^T z over the pushed prefix
  std::vector<double> u_scratch_;          ///< rank-1 update staging (r)
  mutable std::vector<double> c_scratch_;  ///< S^{-1} h (r)
  mutable std::vector<double> var_scratch_;  ///< per-QoI S^{-1} G^T column (r)
  /// MAP scratch (map_into): the backward-substitution vector, sized to the
  /// whole data dimension on first use, and the Toeplitz/prior workspace
  /// for the prefix G* lift. Nothing in it carries over between reads.
  /// mutable because the reads are logically const; the assimilator is
  /// single-caller by contract (one worker drains an event at a time), so
  /// no guard is needed.
  mutable std::vector<double> snapshot_u_;
  mutable Posterior::Workspace ws_;
};

}  // namespace tsunami
