#pragma once

// The digital twin: end-to-end orchestration of the paper's four phases.
//
//   Phase 1 (offline): Nd + Nq adjoint wave propagations -> F, Fq.
//   Phase 2 (offline): prior_product of F's first block column (prior
//                      solves, one GEMM, a diagonal prefix sum) -> K;
//                      Cholesky.
//   Phase 3 (offline): Gamma_post(q) and the forecast slab R = L^{-1} V.
//   Phase 4 (online) : given d_obs, z = L^{-1} d, then the forecast R^T z
//                      with 95% CIs and m_map = G* L^{-T} z (no PDE solves).
//
// The twin also synthesizes ground-truth experiments: a kinematic rupture
// scenario drives the forward model to produce noisy sensor data and true
// QoI series (the paper's Fig. 3/4 setup with 1% relative noise).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/data_space_hessian.hpp"
#include "core/forecast.hpp"
#include "core/p2o_builder.hpp"
#include "core/posterior.hpp"
#include "core/streaming_assimilator.hpp"
#include "mesh/bathymetry.hpp"
#include "mesh/hex_mesh.hpp"
#include "prior/matern_prior.hpp"
#include "rupture/scenario.hpp"
#include "util/artifact_bundle.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "wave/acoustic_gravity.hpp"

namespace tsunami {

/// Twin-wide configuration. Every field documents its paper-scale value next
/// to the reduced seed default: the defaults keep CPU runs interactive while
/// preserving the paper's structure, so scaling toward the paper is a matter
/// of turning these knobs up (see README.md "Scaling knobs").
struct TwinConfig {
  // Mesh and discretization.
  /// Synthetic Cascadia-like topobathymetry (GEBCO substitution). The paper
  /// meshes the real margin, ~1000 km along strike; the seed default is a
  /// flat-bottomed ~60x80 km footprint (examples use up to 120x200 km).
  BathymetryConfig bathymetry{};
  /// Hex-element counts of the structured footprint mesh. Paper: O(10^6)
  /// elements (billions of DOFs across GPUs); seed default: 12x18x3 = 648.
  std::size_t mesh_nx = 12, mesh_ny = 18, mesh_nz = 3;
  /// Polynomial order of the pressure space. Paper: 4 (their throughput
  /// study's high order); seed default: 2 for fast CPU turnaround.
  std::size_t order = 2;
  /// Water/gravity/acoustic constants; defaults match the paper's ocean.
  PhysicalConstants physics{};
  /// Wave-operator implementation (the Fig. 7 optimization ladder). Paper
  /// and seed both default to the fused partial-assembly kernel.
  KernelVariant kernel = KernelVariant::FusedPA;
  /// CFL fraction for the explicit RK4 substep. Paper runs near the acoustic
  /// stability limit; 0.3 leaves margin on coarse seed meshes.
  double cfl = 0.3;

  // Observations.
  std::size_t num_sensors = 12;   ///< seafloor pressure sensors (paper: 600)
  std::size_t num_gauges = 5;     ///< QoI forecast locations (paper: 21)
  std::size_t num_intervals = 30; ///< Nt observation intervals (paper: 420)
  /// Seconds between observations. Paper: 1.0 (1 Hz for 420 s); seed
  /// default: 4.0 so Nt=30 still spans a two-minute window on CPU.
  double observation_dt = 4.0;

  // Inference.
  /// Matern (biLaplacian) prior on the seafloor velocity parameter field.
  /// Paper: correlation length ~25 km at margin scale; seed tiny(): 20 km.
  MaternPriorConfig prior{};
  double noise_level = 0.01;      ///< relative noise (paper: 1%)

  /// Ignored: Phase 1 always runs its adjoint solves concurrently. Not
  /// fingerprinted. It stays only because the benchmark harness still sets
  /// it; ROADMAP item 1 stops that and deletes it.
  bool phase1_parallel = false;

  /// A small config that keeps unit tests fast: 6x8x2 mesh, 6 sensors,
  /// 3 gauges, Nt=12 at 5 s — the same pipeline at ~1/50 the paper's Nt
  /// and ~1/100 its sensor count.
  static TwinConfig tiny();

  /// FNV-1a hash over every result-determining field (bathymetry, mesh,
  /// order, physics, kernel, cfl, observations, prior, noise level — NOT
  /// the ignored phase1_parallel). Two configs with equal fingerprints
  /// produce interchangeable offline artifacts; the artifact
  /// bundle stores the producer's fingerprint and the warm-start path
  /// asserts compatibility against it.
  [[nodiscard]] std::uint64_t fingerprint() const;
};

/// Synthetic ground truth + observations for one rupture scenario.
struct SyntheticEvent {
  std::vector<double> m_true;   ///< time-major true seafloor velocity
  std::vector<double> d_true;   ///< noiseless sensor data
  std::vector<double> d_obs;    ///< noisy observations
  std::vector<double> q_true;   ///< true QoI (wave heights at gauges)
  NoiseModel noise;
};

/// Online inversion output (Phase 4).
struct InversionResult {
  std::vector<double> m_map;     ///< inferred seafloor velocity (time-major)
  Forecast forecast;             ///< QoI prediction with 95% CIs
  double infer_seconds = 0.0;    ///< Table III "infer": L^{-T} z, G* lift
  double predict_seconds = 0.0;  ///< Table III "predict": L^{-1} d, R^T z
};

class DigitalTwin {
 public:
  /// Throws std::invalid_argument unless cfl and observation_dt are positive
  /// and finite and one observation interval takes at most 2^24 CFL substeps.
  explicit DigitalTwin(const TwinConfig& config);

  /// Warm start (the warning-center boot path): boot builds the online
  /// operators a tick reads — the posterior over F, the packed factor L,
  /// the predictor with R and Gamma_post(q) — and the mesh, time grid and
  /// prior, without a single PDE solve or factorization. What no tick reads
  /// is built at its first use: F's spectra at its first apply (the first
  /// MAP read), the wave model and observation operators at the first
  /// model(), sensors(), gauges(), synthesize or run_phase1. No Fq ships.
  /// The twin's configuration is read from the bundle itself (a non-finite
  /// or out-of-range field throws std::runtime_error), the stored
  /// fingerprint is verified against it, and every section is checked
  /// against the sizes the config implies before anything is sized by the
  /// config: a mismatch throws std::runtime_error naming the section. Each
  /// section's payload is moved into its owner, not copied, so pass an
  /// rvalue when the bundle is not needed afterwards. infer() and streaming
  /// push() on the result are bit-identical to the cold-path twin that
  /// produced the bundle (tests/test_artifact_bundle.cpp).
  explicit DigitalTwin(ArtifactBundle bundle);

  // ---- offline artifact shipping -------------------------------------------
  /// Serialize everything Phase 4 reads (config + fingerprint, F's block
  /// columns, the Cholesky factor of K packed by rows, Gamma_post(q), the
  /// forecast slab R, the calibrated noise) into one versioned, checksummed
  /// bundle file.
  /// Requires completed offline phases.
  void save_offline(const std::string& path) const;

  /// The in-memory form of save_offline (exposed for tests and tooling).
  [[nodiscard]] ArtifactBundle make_bundle() const;

  /// Boot a twin from a bundle file (HPC side writes, warning center reads).
  [[nodiscard]] static DigitalTwin load_offline(const std::string& path);

  /// As above, but additionally asserts the bundle was produced by a twin
  /// with exactly this configuration (fingerprint comparison); throws
  /// std::runtime_error on mismatch.
  [[nodiscard]] static DigitalTwin load_offline(const std::string& path,
                                                const TwinConfig& expected);

  // ---- offline phases ------------------------------------------------------
  /// Each phase drops what the later phases built from its old outputs, so
  /// the twin is online-ready again only once phase 3 has run.
  /// Phase 1: build F and Fq (Nd + Nq adjoint propagations).
  void run_phase1();
  /// Phase 2: form and factorize the data-space Hessian. Requires phase 1
  /// (F and Fq); throws std::logic_error, changing nothing, on a twin
  /// without them, e.g. a bundle-booted one.
  void run_phase2(const NoiseModel& noise);
  /// Phase 3: QoI covariance and forecast slab R. Requires phases 1 and 2.
  void run_phase3();

  /// All offline phases against a synthetic event's calibrated noise.
  void run_offline(const NoiseModel& noise) {
    run_phase1();
    run_phase2(noise);
    run_phase3();
  }

  // ---- experiment synthesis ------------------------------------------------
  /// Forward-model a rupture scenario into noisy observations (independent of
  /// the offline phases; uses PDE solves).
  [[nodiscard]] SyntheticEvent synthesize(const RuptureScenario& scenario,
                                          Rng& rng) const;

  // ---- online phase --------------------------------------------------------
  /// True once phases 1-3 have run and `infer` may be called.
  [[nodiscard]] bool online_ready() const { return posterior_ && predictor_; }

  /// Phase 4: real-time inference + forecasting. Requires phases 1-3. Runs
  /// the stream's kernels over the whole window, so the result is bitwise a
  /// streamed final tick's. Throws std::invalid_argument on a wrong length.
  [[nodiscard]] InversionResult infer(std::span<const double> d_obs) const;

  /// Build the streaming front door over the offline operators: an engine
  /// whose assimilators ingest one observation interval per push and
  /// maintain the exact truncated posterior (rolling m_map + forecast) with
  /// no refactorization. Requires phases 1-3; the twin must outlive the
  /// engine, and the engine carries a lifetime token so violating that (or
  /// re-running the offline phases underneath it) throws std::logic_error
  /// instead of slicing freed state. See src/core/streaming_assimilator.hpp
  /// for the prefix-Cholesky argument.
  [[nodiscard]] StreamingEngine make_streaming(
      const StreamingOptions& options = {},
      TimerRegistry* timers = nullptr) const;

  // ---- diagnostics ---------------------------------------------------------
  /// Time-integrated seafloor displacement b(x) = int m dt (Fig. 3 fields).
  [[nodiscard]] std::vector<double> displacement_field(
      std::span<const double> m) const;

  /// Relative L2 error between two parameter-space fields.
  [[nodiscard]] static double relative_error(std::span<const double> estimate,
                                             std::span<const double> truth);

  // ---- access --------------------------------------------------------------
  [[nodiscard]] const TwinConfig& config() const { return cfg_; }
  [[nodiscard]] const HexMesh& mesh() const { return *mesh_; }
  /// The wave model and the observation operators, built once at the first
  /// call of any of these (or of synthesize or run_phase1), from any thread.
  [[nodiscard]] const AcousticGravityModel& model() const {
    return *wave().model;
  }
  [[nodiscard]] const ObservationOperator& sensors() const {
    return *wave().sensors;
  }
  [[nodiscard]] const ObservationOperator& gauges() const {
    return *wave().gauges;
  }
  [[nodiscard]] const TimeGrid& time_grid() const { return time_; }
  [[nodiscard]] const MaternPrior& prior() const { return *prior_; }
  [[nodiscard]] const P2oMap& p2o() const { return f_; }
  /// Throws std::logic_error on a twin without Fq (e.g. bundle-booted).
  [[nodiscard]] const P2oMap& p2q() const;
  [[nodiscard]] const DataSpaceHessian& hessian() const { return *hessian_; }
  [[nodiscard]] const Posterior& posterior() const { return *posterior_; }
  [[nodiscard]] const QoiPredictor& predictor() const { return *predictor_; }
  [[nodiscard]] TimerRegistry& timers() { return timers_; }
  [[nodiscard]] const TimerRegistry& timers() const { return timers_; }

  /// Nm Nt: one field on the prior's seafloor grid per interval.
  [[nodiscard]] std::size_t parameter_dim() const {
    return prior_->dim() * time_.num_intervals;
  }
  [[nodiscard]] std::size_t data_dim() const {
    return cfg_.num_sensors * time_.num_intervals;
  }

 private:
  /// A bundle's config and online products, each section checked against
  /// the sizes its config implies.
  struct OfflineProducts;
  /// Unpack + fingerprint-verify the config stored in a bundle, then take
  /// every section out of it (payloads moved) and check its dimensions.
  [[nodiscard]] static OfflineProducts take_offline(ArtifactBundle& bundle);
  /// Build the twin of the products' config and install f_, hessian_,
  /// posterior_ and predictor_ from them.
  explicit DigitalTwin(OfflineProducts products);

  /// The wave model and both observation operators; a served tick reads
  /// none of them. Heap-held so the twin stays movable.
  struct WaveModel {
    std::once_flag built;
    std::unique_ptr<AcousticGravityModel> model;
    std::unique_ptr<ObservationOperator> sensors;
    std::unique_ptr<ObservationOperator> gauges;
  };
  /// Builds the wave model on its first call (std::call_once; the idiom of
  /// BlockToeplitz's spectra). Throws std::logic_error if its source map
  /// disagrees with the parameter grid the config implies.
  const WaveModel& wave() const;
  /// Replace the offline-state epoch token: any streaming engine built over
  /// the previous offline state now throws instead of slicing stale slabs.
  void refresh_offline_epoch();

  TwinConfig cfg_;
  Bathymetry bathy_;
  std::unique_ptr<HexMesh> mesh_;
  std::unique_ptr<WaveModel> wave_;
  TimeGrid time_;
  std::unique_ptr<MaternPrior> prior_;

  P2oMap f_;
  P2oMap fq_;
  std::unique_ptr<DataSpaceHessian> hessian_;
  std::unique_ptr<Posterior> posterior_;
  std::unique_ptr<QoiPredictor> predictor_;
  /// Lifetime token handed to streaming engines; recreated whenever the
  /// offline operators they read are (re)built.
  std::shared_ptr<const std::uint64_t> offline_epoch_;
  TimerRegistry timers_;
};

}  // namespace tsunami
