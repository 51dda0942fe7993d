#pragma once

// ScenarioBank: batched multi-scenario online inference.
//
// The paper's real-time claim rests on an offline/online split: Phases 1-3
// precompute the p2o maps, the data-space Hessian factorization, and the
// data-to-QoI operator once per sensor network, after which Phase 4 costs
// only dense linear algebra per event. This module exploits that amortization
// in the direction the follow-up literature points (sequential Bayesian
// updating over rupture ensembles; probabilistic Cascadia forecasting): hold
// a *bank* of N kinematic rupture scenarios spanning magnitude, hypocenter,
// and rise time, synthesize observations for each, and sweep the online
// phase over the whole bank — in parallel, since the online operators are
// immutable after Phase 3 and every solve uses caller-local buffers.
//
// Intended use (see tests/test_scenario_bank.cpp):
//
//   DigitalTwin twin(config);
//   ScenarioBank bank(twin, ScenarioBank::spread(twin, 16, seed));
//   bank.synthesize(noise_seed);          // PDE forward solves, once per scenario
//   twin.run_offline(bank.shared_noise());// Phases 1-3, ONCE for the bank
//   EnsembleReport report = bank.run_online();  // batched Phase 4
//
// The report carries per-scenario online latency (the paper's Table III
// "infer m_map" / "predict q_map" rows, one pair per scenario) plus ensemble
// accuracy aggregates.

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/digital_twin.hpp"
#include "util/stats.hpp"

namespace tsunami {

/// Rupture morphology of a bank entry.
///
/// `kCompact` nucleates at the dominant asperity, so the event is fully
/// observable within a short window — the right class for the seed-scale
/// configs, whose windows (Nt=12-30 intervals) are far shorter than the
/// paper's 420 s. `kMarginWide` is the paper's Mw 8.7 event class (asperities
/// strung along the whole margin); at paper scale (Nt=420) it is fully
/// observed, at seed scale its far asperities rupture after the window ends.
enum class RuptureStyle { kCompact, kMarginWide };

/// Specification of one kinematic rupture scenario in a bank.
///
/// Each spec materializes into a `RuptureConfig` (compact generator or
/// `margin_wide_scenario`) with the kinematic knobs the bank sweeps.
struct ScenarioSpec {
  std::string name;               ///< label used in reports
  RuptureStyle style = RuptureStyle::kCompact;
  double magnitude = 8.7;         ///< Mw; sets peak uplift (8.7 -> ~3 m)
  double hypocenter_x = -1.0;     ///< nucleation x [m]; < 0 keeps generator default
  double hypocenter_y = -1.0;     ///< nucleation y [m]; < 0 keeps generator default
  double rise_time = 15.0;        ///< local source duration [s] (paper: ~15 s)
  double rupture_speed = 2500.0;  ///< rupture front speed [m/s]
  unsigned seed = 2025;           ///< asperity-layout seed
};

/// Per-scenario outcome of one batched online pass.
struct ScenarioResult {
  ScenarioSpec spec;
  double infer_seconds = 0.0;     ///< Phase 4 "infer parameters m_map"
  double predict_seconds = 0.0;   ///< Phase 4 "predict QoI q_map"
  /// Total online latency (infer + predict) — the per-event cost that must
  /// stay under the paper's 0.2 s budget at full scale.
  double online_seconds = 0.0;
  double displacement_error = 0.0;     ///< rel. L2 of b_map vs b_true
  /// Normalized <b_map, b_true>: the robust recovery metric at seed scale
  /// (the forecast metrics are noise-sensitive on short windows because the
  /// data only weakly constrain the source's temporal structure, which the
  /// time-integrated displacement marginalizes out).
  double displacement_correlation = 0.0;
  double forecast_error = 0.0;         ///< rel. L2 of q_map vs q_true
  double forecast_correlation = 0.0;   ///< normalized <q_map, q_true>
  double ci_coverage = 0.0;            ///< frac. of q_true inside the 95% band
  double peak_true_uplift = 0.0;       ///< max |b_true| [m]
  double peak_inferred_uplift = 0.0;   ///< max |b_map| [m]
};

/// Per-scenario outcome of one streaming (tick-by-tick) replay.
struct StreamingScenarioResult {
  ScenarioSpec spec;
  std::size_t ticks_total = 0;
  /// Earliest tick count after which the rolling forecast mean stays within
  /// the sweep's relative tolerance of the final (full-data) forecast — the
  /// "time-to-confident-forecast" an early-warning operator cares about.
  std::size_t confident_tick = 0;
  double confident_seconds = 0.0;  ///< confident_tick in data time [s]
  double mean_push_seconds = 0.0;  ///< mean per-tick assimilation latency
  double max_push_seconds = 0.0;   ///< worst per-tick assimilation latency
  double final_forecast_error = 0.0;        ///< rel. L2 of final q vs q_true
  double final_forecast_correlation = 0.0;  ///< normalized <q, q_true>
  /// Normalized <b_map, b_true> at the final tick. Only meaningful when
  /// `map_tracked`; the table prints "n/a" otherwise.
  double displacement_correlation = 0.0;
  bool map_tracked = false;  ///< whether the engine maintained m_map
};

/// Aggregates + per-scenario table for one streaming sweep of the bank.
struct StreamingSweepReport {
  std::vector<StreamingScenarioResult> scenarios;
  double tolerance = 0.0;           ///< the confident-forecast threshold used
  double wall_seconds = 0.0;        ///< wall time of the whole sweep
  double mean_confident_seconds = 0.0;
  double max_confident_seconds = 0.0;
  /// Mean of confident_tick / ticks_total: 1.0 means forecasts only settle
  /// at the end of the window, small values mean actionable early warnings.
  double mean_confident_fraction = 0.0;
  double mean_push_seconds = 0.0;
  double max_push_seconds = 0.0;
  /// Distribution of EVERY per-tick push latency in the sweep (count =
  /// scenarios x ticks), not just per-scenario means: the sweep analogue of
  /// the warning service's p50/p95/p99 telemetry, computed by the same
  /// util/stats estimator. Tail latency is what an operator provisions for.
  LatencySummary push_latency;

  /// Paper-style text table: one row per scenario plus an aggregate footer
  /// and a push-latency percentile line.
  [[nodiscard]] std::string table() const;
};

/// Ensemble aggregates + per-scenario table for one batched online pass.
struct EnsembleReport {
  std::vector<ScenarioResult> scenarios;
  double online_wall_seconds = 0.0;  ///< wall time of the whole batched sweep
  double mean_online_seconds = 0.0;  ///< mean per-scenario online latency
  double max_online_seconds = 0.0;   ///< worst per-scenario online latency
  double mean_displacement_error = 0.0;
  double mean_displacement_correlation = 0.0;
  double mean_forecast_error = 0.0;  ///< the "ensemble-mean forecast error"
  double mean_forecast_correlation = 0.0;
  double mean_ci_coverage = 0.0;
  /// Distribution of the per-scenario online latencies (p50/p95/p99 via
  /// util/stats — the same estimator the service telemetry uses).
  LatencySummary online_latency;

  /// Paper-style text table: one row per scenario plus an aggregate footer
  /// and an online-latency percentile line.
  [[nodiscard]] std::string table() const;
};

/// A bank of rupture scenarios sharing one twin's precomputed operators.
///
/// Lifecycle: construct with specs, `synthesize()` ground truth (forward PDE
/// solves — this is experiment setup, not part of the online budget), build
/// the twin's offline phases once against `shared_noise()`, then call
/// `run_online()` as often as desired. `run_online` is const and touches only
/// immutable twin state, so banks can be swept repeatedly (e.g. while new
/// data streams in) or from multiple threads.
class ScenarioBank {
 public:
  /// The twin is held by reference; it must outlive the bank. The offline
  /// phases need not have run yet — only `run_online` requires them.
  ScenarioBank(const DigitalTwin& twin, std::vector<ScenarioSpec> specs);

  /// Owning variant (the warm-start path): the bank shares ownership of the
  /// twin, so a bundle-booted twin needs no separate keeper. Throws
  /// std::invalid_argument on a null twin.
  ScenarioBank(std::shared_ptr<const DigitalTwin> twin,
               std::vector<ScenarioSpec> specs);

  /// Warm-start an ensemble sweep from one artifact bundle: boot the twin
  /// from `bundle_path` (no PDE solves, no factorization — see
  /// DigitalTwin::load_offline), spread `n` scenarios over its footprint,
  /// and return a bank owning the twin. Every scenario in the sweep reuses
  /// the single shipped offline state; only `synthesize()` (experiment
  /// setup, not part of a deployment) still runs the forward model.
  [[nodiscard]] static ScenarioBank from_bundle(const std::string& bundle_path,
                                                std::size_t n,
                                                unsigned seed = 2025);

  /// Deterministic spread of `n` distinct compact scenarios over the twin's
  /// footprint: magnitude in [8.0, 9.1], epicenter swept along strike,
  /// rise time in [8, 16] s, rupture speed in [2000, 3000] m/s, and a
  /// distinct asperity layout per scenario.
  [[nodiscard]] static std::vector<ScenarioSpec> spread(const DigitalTwin& twin,
                                                        std::size_t n,
                                                        unsigned seed = 2025);

  /// Materialize a spec on the twin's footprint (generator + overrides).
  [[nodiscard]] RuptureConfig rupture_config(const ScenarioSpec& spec) const;

  /// Forward-model every scenario into noisy observations (PDE solves; the
  /// expensive, offline part of the experiment). Parallel over scenarios;
  /// every stochastic draw (asperity layout, noise) comes from a dedicated
  /// per-scenario seeded stream derived from `noise_seed` and the scenario
  /// index, so the synthesized bank is bit-identical regardless of thread
  /// count or scheduling (asserted in tests/test_scenario_bank.cpp). All
  /// events are noised at one absolute floor (the median of the per-event
  /// 1% calibrations): a real seafloor network has fixed instrument noise,
  /// and it keeps the offline Hessian exactly calibrated for every event in
  /// the bank.
  void synthesize(unsigned noise_seed = 7);

  /// The bank-wide noise floor used by `synthesize()`. The data-space
  /// Hessian is factorized once against this shared calibration, mirroring
  /// a deployed twin whose K is built for the network's noise floor rather
  /// than re-factorized per event. Requires `synthesize()`.
  [[nodiscard]] NoiseModel shared_noise() const;

  /// Batched Phase 4 over the whole bank. Requires `synthesize()` and the
  /// twin's offline phases. When `parallel` is true scenarios run
  /// concurrently via parallel_for (the online operators are immutable and
  /// every solve uses caller-local scratch); serial mode gives clean
  /// per-scenario latency measurements for benchmarking.
  [[nodiscard]] EnsembleReport run_online(bool parallel = true) const;

  /// Streaming sweep: replay every scenario in the bank tick-by-tick through
  /// `engine` (one lightweight assimilator per scenario, all sharing the
  /// engine's immutable precompute), concurrently when `parallel`. Reports
  /// per-scenario time-to-confident-forecast: the earliest tick after which
  /// the rolling forecast mean stays within `tolerance` (relative L2) of the
  /// final full-data forecast. Requires `synthesize()`; the engine must be
  /// built over this bank's twin.
  [[nodiscard]] StreamingSweepReport run_streaming(
      const StreamingEngine& engine, bool parallel = true,
      double tolerance = 0.05) const;

  [[nodiscard]] std::size_t size() const { return specs_.size(); }
  [[nodiscard]] const std::vector<ScenarioSpec>& specs() const { return specs_; }
  /// Synthesized events, aligned with `specs()`. Empty until `synthesize()`.
  [[nodiscard]] const std::vector<SyntheticEvent>& events() const {
    return events_;
  }
  [[nodiscard]] const DigitalTwin& twin() const { return twin_; }

 private:
  std::shared_ptr<const DigitalTwin> owned_;  ///< set on the owning path only
  const DigitalTwin& twin_;
  std::vector<ScenarioSpec> specs_;
  std::vector<SyntheticEvent> events_;
};

}  // namespace tsunami
