#include "core/digital_twin.hpp"

#include <cmath>
#include <stdexcept>

#include "linalg/blas.hpp"
#include "obs/trace.hpp"

namespace tsunami {

namespace {

// ---- TwinConfig <-> bundle packing -----------------------------------------
// Every result-determining config field, flattened to doubles in a fixed
// documented order. The fingerprint hashes exactly these bytes, so two
// configs fingerprint equal iff their offline artifacts are interchangeable.
// Build-strategy knobs (phase1_parallel) are deliberately NOT packed: they
// change how artifacts are computed, never what they contain.
constexpr std::size_t kNumConfigFields = 25;

/// Most CFL substeps one observation interval may take (2^24).
constexpr double kMaxSubsteps = 16777216.0;

std::vector<double> pack_config(const TwinConfig& c) {
  return {
      c.bathymetry.length_x,       c.bathymetry.length_y,
      c.bathymetry.depth_abyssal,  c.bathymetry.depth_shelf,
      c.bathymetry.slope_center,   c.bathymetry.slope_width,
      c.bathymetry.undulation_amp, c.bathymetry.undulation_waves,
      c.bathymetry.min_depth,
      static_cast<double>(c.mesh_nx),
      static_cast<double>(c.mesh_ny),
      static_cast<double>(c.mesh_nz),
      static_cast<double>(c.order),
      c.physics.rho,               c.physics.sound_speed,
      c.physics.gravity,
      static_cast<double>(static_cast<int>(c.kernel)),
      c.cfl,
      static_cast<double>(c.num_sensors),
      static_cast<double>(c.num_gauges),
      static_cast<double>(c.num_intervals),
      c.observation_dt,
      c.prior.sigma,               c.prior.correlation_length,
      c.noise_level,
  };
}

std::size_t unpack_size(double v, const char* what, std::size_t lo,
                        std::size_t hi) {
  // Bundle fields are untrusted input: a crafted config with a
  // self-consistent fingerprint must not be able to drive the constructor
  // into wrapped or exabyte-scale allocations. The caps are far above paper
  // scale but far below overflow territory.
  if (!(v >= 0.0) || v != std::floor(v) ||
      v < static_cast<double>(lo) || v > static_cast<double>(hi))
    throw std::runtime_error(std::string("artifact bundle config: bad ") +
                             what);
  return static_cast<std::size_t>(v);
}

TwinConfig unpack_config(const std::vector<double>& p) {
  if (p.size() != kNumConfigFields)
    throw std::runtime_error(
        "artifact bundle config: unexpected field count");
  for (const double v : p)
    if (!std::isfinite(v))
      throw std::runtime_error("artifact bundle config: non-finite field");
  TwinConfig c;
  c.bathymetry.length_x = p[0];
  c.bathymetry.length_y = p[1];
  c.bathymetry.depth_abyssal = p[2];
  c.bathymetry.depth_shelf = p[3];
  c.bathymetry.slope_center = p[4];
  c.bathymetry.slope_width = p[5];
  c.bathymetry.undulation_amp = p[6];
  c.bathymetry.undulation_waves = p[7];
  c.bathymetry.min_depth = p[8];
  c.mesh_nx = unpack_size(p[9], "mesh_nx", 1, 1u << 16);
  c.mesh_ny = unpack_size(p[10], "mesh_ny", 1, 1u << 16);
  c.mesh_nz = unpack_size(p[11], "mesh_nz", 1, 1u << 16);
  if (checked_mul_u64(checked_mul_u64(c.mesh_nx, c.mesh_ny,
                                      "artifact bundle config: mesh"),
                      c.mesh_nz, "artifact bundle config: mesh") > (1u << 28))
    throw std::runtime_error("artifact bundle config: mesh too large");
  c.order = unpack_size(p[12], "order", 1, 32);
  c.physics.rho = p[13];
  c.physics.sound_speed = p[14];
  c.physics.gravity = p[15];
  const std::size_t kernel =
      unpack_size(p[16], "kernel variant", 0, all_kernel_variants().size() - 1);
  c.kernel = static_cast<KernelVariant>(kernel);
  c.cfl = p[17];
  c.num_sensors = unpack_size(p[18], "num_sensors", 1, 1u << 20);
  c.num_gauges = unpack_size(p[19], "num_gauges", 1, 1u << 20);
  c.num_intervals = unpack_size(p[20], "num_intervals", 1, 1u << 24);
  c.observation_dt = p[21];
  c.prior.sigma = p[22];
  c.prior.correlation_length = p[23];
  c.noise_level = p[24];
  return c;
}

/// Rebuild a P2oMap (blocks + FFT Toeplitz engine) from a bundle section.
P2oMap p2o_from_section(const BundleSection& s) {
  P2oMap m;
  m.nrows = static_cast<std::size_t>(s.dims[0]);
  m.ncols = static_cast<std::size_t>(s.dims[1]);
  m.nt = static_cast<std::size_t>(s.dims[2]);
  m.blocks = s.data;
  m.toeplitz = std::make_unique<BlockToeplitz>(
      m.nrows, m.ncols, m.nt, std::span<const double>(m.blocks));
  return m;
}

void expect_p2o_dims(const BundleSection& s, std::size_t nrows,
                     std::size_t ncols, std::size_t nt) {
  if (s.dims.size() != 3 || s.dims[0] != nrows || s.dims[1] != ncols ||
      s.dims[2] != nt)
    throw std::runtime_error("artifact bundle: section '" + s.name +
                             "' dimensions do not match this configuration");
}

}  // namespace

std::uint64_t TwinConfig::fingerprint() const {
  const std::vector<double> packed = pack_config(*this);
  return fnv1a(packed.data(), packed.size() * sizeof(double));
}

TwinConfig TwinConfig::tiny() {
  TwinConfig c;
  c.bathymetry = flat_basin(2000.0, 60e3, 80e3);
  c.mesh_nx = 6;
  c.mesh_ny = 8;
  c.mesh_nz = 2;
  c.order = 2;
  c.num_sensors = 6;
  c.num_gauges = 3;
  c.num_intervals = 12;
  c.observation_dt = 5.0;
  c.prior.correlation_length = 2.0e4;
  // Prior marginal std dev of the seafloor velocity: a Mw ~8 rupture moves
  // the seafloor at O(0.1) m/s, so 0.2 m/s is a weakly informative choice.
  c.prior.sigma = 0.2;
  return c;
}

DigitalTwin::DigitalTwin(const TwinConfig& config)
    : cfg_(config), bathy_(config.bathymetry) {
  if (!(std::isfinite(cfg_.cfl) && cfg_.cfl > 0.0) ||
      !(std::isfinite(cfg_.observation_dt) && cfg_.observation_dt > 0.0))
    throw std::invalid_argument(
        "TwinConfig: cfl and observation_dt must be positive and finite");
  mesh_ = std::make_unique<HexMesh>(bathy_, cfg_.mesh_nx, cfg_.mesh_ny,
                                    cfg_.mesh_nz);
  model_ = std::make_unique<AcousticGravityModel>(*mesh_, cfg_.order,
                                                  cfg_.physics, cfg_.kernel);

  // Sensors offshore over the source region (seaward 2/3 of the margin);
  // gauges near the coast (landward side), where early warning matters.
  const double lx = mesh_->length_x(), ly = mesh_->length_y();
  sensors_ = std::make_unique<ObservationOperator>(
      ObservationOperator::seafloor_sensors(
          *model_,
          sensor_grid(cfg_.num_sensors, 0.08 * lx, 0.62 * lx, 0.06 * ly,
                      0.94 * ly)));
  gauges_ = std::make_unique<ObservationOperator>(
      ObservationOperator::surface_gauges(
          *model_, sensor_grid(cfg_.num_gauges, 0.78 * lx, 0.92 * lx,
                               0.10 * ly, 0.90 * ly)));

  // Temporal grid: substep count from the CFL bound, range-checked before
  // the cast (a tiny cfl gives a count no size_t holds).
  const double dt_cfl = model_->cfl_timestep(cfg_.cfl);
  const double steps = std::ceil(cfg_.observation_dt / dt_cfl);
  if (!std::isfinite(steps) || steps > kMaxSubsteps)
    throw std::invalid_argument(
        "TwinConfig: observation_dt needs too many CFL substeps");
  const auto substeps = static_cast<std::size_t>(std::max(1.0, steps));
  time_.num_intervals = cfg_.num_intervals;
  time_.substeps = substeps;
  time_.dt = cfg_.observation_dt / static_cast<double>(substeps);

  // Spatial prior on the seafloor parameter grid; nominal node spacings.
  const auto& src = model_->source_map();
  const double hx = lx / static_cast<double>(src.grid_nx() - 1);
  const double hy = ly / static_cast<double>(src.grid_ny() - 1);
  prior_ = std::make_unique<MaternPrior>(src.grid_nx(), src.grid_ny(), hx, hy,
                                         cfg_.prior);
}

DigitalTwin::DigitalTwin(const ArtifactBundle& bundle)
    : DigitalTwin(config_from_bundle(bundle)) {
  install_offline(bundle);
}

TwinConfig DigitalTwin::config_from_bundle(const ArtifactBundle& bundle) {
  const TwinConfig cfg = unpack_config(bundle.vector("config"));
  // The stored fingerprint must reproduce from the stored config: a
  // mismatch means the bundle's identity and its contents disagree
  // (tampering, a partial rewrite, or a producer/consumer field-order skew).
  if (cfg.fingerprint() != bundle.fingerprint)
    throw std::runtime_error(
        "artifact bundle: config fingerprint mismatch (bundle identity "
        "disagrees with its stored configuration)");
  return cfg;
}

void DigitalTwin::install_offline(const ArtifactBundle& bundle) {
  ScopedTimer t(timers_, "warm start: install bundle");
  const std::size_t nm = model_->source_map().parameter_dim();
  const std::size_t nt = time_.num_intervals;
  const std::size_t n = data_dim();

  const BundleSection& f_sec = bundle.at("p2o/F");
  expect_p2o_dims(f_sec, sensors_->num_outputs(), nm, nt);
  const BundleSection& fq_sec = bundle.at("p2o/Fq");
  expect_p2o_dims(fq_sec, gauges_->num_outputs(), nm, nt);

  const std::vector<double> sigma = bundle.vector("noise/sigma");
  if (sigma.size() != 1 || !(sigma[0] > 0.0))
    throw std::runtime_error("artifact bundle: bad noise/sigma section");

  Matrix l = bundle.matrix("hessian/chol_L");
  if (l.rows() != n || l.cols() != n)
    throw std::runtime_error(
        "artifact bundle: Cholesky factor dimensions do not match this "
        "configuration");
  Matrix q = bundle.matrix("qoi/Q");
  const std::size_t nqoi = cfg_.num_gauges * nt;
  if (q.rows() != nqoi || q.cols() != n)
    throw std::runtime_error(
        "artifact bundle: Q dimensions do not match this configuration");
  Matrix cov = bundle.matrix("qoi/cov");
  if (cov.rows() != nqoi || cov.cols() != nqoi)
    throw std::runtime_error(
        "artifact bundle: Gamma_post(q) dimensions do not match this "
        "configuration");

  // All sections validated; rebuild the online operators. No PDE solves, no
  // Hessian formation, no factorization — the whole point of the split.
  f_ = p2o_from_section(f_sec);
  fq_ = p2o_from_section(fq_sec);
  hessian_ = std::make_unique<DataSpaceHessian>(
      DataSpaceHessian::from_factor(std::move(l), NoiseModel{sigma[0]}));
  posterior_ = std::make_unique<Posterior>(*f_.toeplitz, *prior_, *hessian_);
  predictor_ = std::make_unique<QoiPredictor>(*fq_.toeplitz, std::move(q),
                                              std::move(cov));
  refresh_offline_epoch();
}

ArtifactBundle DigitalTwin::make_bundle() const {
  if (!online_ready())
    throw std::logic_error("make_bundle: offline phases not complete");
  ArtifactBundle b;
  b.fingerprint = cfg_.fingerprint();
  b.set("config", {kNumConfigFields}, pack_config(cfg_));
  b.set_vector("noise/sigma",
               std::span<const double>(&hessian_->noise().sigma, 1));
  b.set("p2o/F", {f_.nrows, f_.ncols, f_.nt}, f_.blocks);
  b.set("p2o/Fq", {fq_.nrows, fq_.ncols, fq_.nt}, fq_.blocks);
  b.set_matrix("hessian/chol_L", hessian_->cholesky().factor());
  b.set_matrix("qoi/Q", predictor_->data_to_qoi());
  b.set_matrix("qoi/cov", predictor_->qoi_covariance());
  return b;
}

void DigitalTwin::save_offline(const std::string& path) const {
  save_bundle(path, make_bundle());
}

DigitalTwin DigitalTwin::load_offline(const std::string& path) {
  return DigitalTwin(load_bundle(path));
}

DigitalTwin DigitalTwin::load_offline(const std::string& path,
                                      const TwinConfig& expected) {
  const ArtifactBundle bundle = load_bundle(path);
  if (bundle.fingerprint != expected.fingerprint())
    throw std::runtime_error(
        "load_offline: bundle was produced by a different twin "
        "configuration: " +
        path);
  return DigitalTwin(bundle);
}

void DigitalTwin::refresh_offline_epoch() {
  const std::uint64_t next = offline_epoch_ ? *offline_epoch_ + 1 : 1;
  offline_epoch_ = std::make_shared<const std::uint64_t>(next);
}

void DigitalTwin::run_phase1() {
  TRACE_SCOPE("offline", "phase1");
  {
    ScopedTimer t(timers_, "phase1: form F");
    f_ = build_p2o_map(*model_, *sensors_, time_, &timers_,
                       {.parallel_rows = cfg_.phase1_parallel});
  }
  {
    ScopedTimer t(timers_, "phase1: form Fq");
    fq_ = build_p2o_map(*model_, *gauges_, time_, &timers_,
                        {.parallel_rows = cfg_.phase1_parallel});
  }
  // The posterior/predictor (if any) now reference a stale F; streaming
  // engines built over them must not keep slicing it.
  refresh_offline_epoch();
}

void DigitalTwin::run_phase2(const NoiseModel& noise) {
  if (!f_.toeplitz) throw std::logic_error("run_phase2: phase 1 not run");
  TRACE_SCOPE("offline", "phase2");
  ScopedTimer t(timers_, "phase2: form+factorize K");
  hessian_ = std::make_unique<DataSpaceHessian>(f_, *prior_, noise, &timers_);
  posterior_ = std::make_unique<Posterior>(*f_.toeplitz, *prior_, *hessian_);
  refresh_offline_epoch();
}

void DigitalTwin::run_phase3() {
  if (!hessian_) throw std::logic_error("run_phase3: phase 2 not run");
  TRACE_SCOPE("offline", "phase3");
  ScopedTimer t(timers_, "phase3: QoI covariance + Q");
  predictor_ =
      std::make_unique<QoiPredictor>(f_, fq_, *prior_, *hessian_, &timers_);
  refresh_offline_epoch();
}

SyntheticEvent DigitalTwin::synthesize(const RuptureScenario& scenario,
                                       Rng& rng) const {
  SyntheticEvent ev;
  ev.m_true = scenario.sample(model_->source_map(), time_);

  std::vector<Matrix> series;
  forward_multi_observe(*model_, {sensors_.get(), gauges_.get()}, time_,
                        ev.m_true, series);
  const std::size_t nt = time_.num_intervals;
  const std::size_t nd = sensors_->num_outputs();
  const std::size_t nq = gauges_->num_outputs();
  ev.d_true.resize(nt * nd);
  for (std::size_t i = 0; i < nt; ++i)
    for (std::size_t s = 0; s < nd; ++s)
      ev.d_true[i * nd + s] = series[0](i, s);
  ev.q_true.resize(nt * nq);
  for (std::size_t i = 0; i < nt; ++i)
    for (std::size_t g = 0; g < nq; ++g)
      ev.q_true[i * nq + g] = series[1](i, g);

  ev.noise = relative_noise(ev.d_true, cfg_.noise_level);
  ev.d_obs = ev.d_true;
  for (auto& v : ev.d_obs) v += ev.noise.sigma * rng.normal();
  return ev;
}

InversionResult DigitalTwin::infer(std::span<const double> d_obs) const {
  if (!online_ready())
    throw std::logic_error("infer: offline phases not complete");
  InversionResult out;
  {
    Stopwatch w;
    out.m_map = posterior_->map_point(d_obs);
    out.infer_seconds = w.seconds();
  }
  {
    Stopwatch w;
    out.forecast = predictor_->predict(d_obs);
    out.predict_seconds = w.seconds();
  }
  return out;
}

StreamingEngine DigitalTwin::make_streaming(const StreamingOptions& options,
                                            TimerRegistry* timers) const {
  if (!online_ready())
    throw std::logic_error("make_streaming: offline phases not complete");
  return StreamingEngine(*posterior_, *predictor_, options, timers,
                         offline_epoch_);
}

std::vector<double> DigitalTwin::displacement_field(
    std::span<const double> m) const {
  const std::size_t nm = model_->source_map().parameter_dim();
  const std::size_t nt = time_.num_intervals;
  if (m.size() != nm * nt)
    throw std::invalid_argument("displacement_field: size mismatch");
  std::vector<double> b(nm, 0.0);
  const double dt = time_.interval();
  for (std::size_t i = 0; i < nt; ++i)
    for (std::size_t r = 0; r < nm; ++r) b[r] += dt * m[i * nm + r];
  return b;
}

double DigitalTwin::relative_error(std::span<const double> estimate,
                                   std::span<const double> truth) {
  if (estimate.size() != truth.size())
    throw std::invalid_argument("relative_error: size mismatch");
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    const double d = estimate[i] - truth[i];
    num += d * d;
    den += truth[i] * truth[i];
  }
  return den > 0 ? std::sqrt(num / den) : std::sqrt(num);
}

}  // namespace tsunami
