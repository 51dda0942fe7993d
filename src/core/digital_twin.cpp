#include "core/digital_twin.hpp"

#include <array>
#include <cmath>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

#include "linalg/blas.hpp"
#include "obs/trace.hpp"

namespace tsunami {

namespace {

// ---- TwinConfig <-> bundle packing -----------------------------------------
// Every result-determining config field, flattened to doubles in a fixed
// documented order. The fingerprint hashes exactly these bytes, so two
// configs fingerprint equal iff their offline artifacts are interchangeable.
// phase1_parallel is deliberately NOT packed: nothing reads it.
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

/// Take a p2o section out of the bundle, check its dims against this
/// configuration, and hand its blocks (moved, not copied) to the map's
/// Toeplitz operator, which builds its spectra only when first applied.
P2oMap take_p2o(ArtifactBundle& bundle, const std::string& name,
                std::size_t nrows, std::size_t ncols, std::size_t nt) {
  BundleSection s = bundle.take(name);
  if (s.dims.size() != 3 || s.dims[0] != nrows || s.dims[1] != ncols ||
      s.dims[2] != nt)
    throw std::runtime_error("artifact bundle: section '" + name +
                             "' dimensions do not match this configuration");
  P2oMap m;
  m.nrows = nrows;
  m.ncols = ncols;
  m.nt = nt;
  m.toeplitz =
      std::make_unique<BlockToeplitz>(nrows, ncols, nt, std::move(s.data));
  return m;
}

/// The blocks of a Phase 1 map, copied into a bundle section.
void set_p2o(ArtifactBundle& b, const std::string& name, const P2oMap& m) {
  const std::span<const double> blocks = m.toeplitz->blocks();
  b.set(name, {m.nrows, m.ncols, m.nt},
        std::vector<double>(blocks.begin(), blocks.end()));
}

/// Take a 2-D section and check its shape; `what` names it in the error.
Matrix take_shaped(ArtifactBundle& bundle, const std::string& name,
                   std::size_t rows, std::size_t cols, const char* what) {
  Matrix m = bundle.take_matrix(name);
  if (m.rows() != rows || m.cols() != cols)
    throw std::runtime_error(std::string("artifact bundle: ") + what +
                             " dimensions do not match this configuration");
  return m;
}

/// Take the order-n Cholesky factor, one dimension of n(n+1)/2 entries
/// packed by rows, and adopt it.
DenseCholesky take_factor(ArtifactBundle& bundle, std::uint64_t n) {
  BundleSection s = bundle.take("hessian/chol_L");
  // n(n+1) is even: halve the even factor, then multiply without wrapping.
  const char* what = "artifact bundle config: Cholesky factor size";
  const std::uint64_t len = n % 2 == 0 ? checked_mul_u64(n / 2, n + 1, what)
                                       : checked_mul_u64(n, (n + 1) / 2, what);
  if (s.dims.size() != 1 || s.dims[0] != len)
    throw std::runtime_error(
        "artifact bundle: Cholesky factor dimensions do not match this "
        "configuration");
  return DenseCholesky::from_factor(static_cast<std::size_t>(n),
                                    std::move(s.data));
}

/// Nodes per side of the seafloor parameter grid: the bottom plane of the
/// order-p H1 space, (mesh_nx p + 1) x (mesh_ny p + 1), read off the config.
std::array<std::size_t, 2> parameter_grid(const TwinConfig& c) {
  return {c.mesh_nx * c.order + 1, c.mesh_ny * c.order + 1};
}

}  // namespace

struct DigitalTwin::OfflineProducts {
  TwinConfig config;
  NoiseModel noise;
  P2oMap f;
  DenseCholesky l;
  Matrix cov;
  Matrix r;
};

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
    : cfg_(config),
      bathy_(config.bathymetry),
      wave_(std::make_unique<WaveModel>()) {
  if (!(std::isfinite(cfg_.cfl) && cfg_.cfl > 0.0) ||
      !(std::isfinite(cfg_.observation_dt) && cfg_.observation_dt > 0.0))
    throw std::invalid_argument(
        "TwinConfig: cfl and observation_dt must be positive and finite");
  mesh_ = std::make_unique<HexMesh>(bathy_, cfg_.mesh_nx, cfg_.mesh_ny,
                                    cfg_.mesh_nz);

  // Temporal grid: substep count from the CFL bound, range-checked before
  // the cast (a tiny cfl gives a count no size_t holds).
  const double dt_cfl =
      cfl_timestep(*mesh_, cfg_.order, cfg_.physics, cfg_.cfl);
  const double steps = std::ceil(cfg_.observation_dt / dt_cfl);
  if (!std::isfinite(steps) || steps > kMaxSubsteps)
    throw std::invalid_argument(
        "TwinConfig: observation_dt needs too many CFL substeps");
  const auto substeps = static_cast<std::size_t>(std::max(1.0, steps));
  time_.num_intervals = cfg_.num_intervals;
  time_.substeps = substeps;
  time_.dt = cfg_.observation_dt / static_cast<double>(substeps);

  // Spatial prior on the seafloor parameter grid; nominal node spacings.
  const auto [grid_nx, grid_ny] = parameter_grid(cfg_);
  const double hx = mesh_->length_x() / static_cast<double>(grid_nx - 1);
  const double hy = mesh_->length_y() / static_cast<double>(grid_ny - 1);
  prior_ = std::make_unique<MaternPrior>(grid_nx, grid_ny, hx, hy, cfg_.prior);
}

DigitalTwin::DigitalTwin(ArtifactBundle bundle)
    : DigitalTwin(take_offline(bundle)) {}

DigitalTwin::DigitalTwin(OfflineProducts products)
    : DigitalTwin(products.config) {
  ScopedTimer t(timers_, "warm start: install bundle");
  // Rebuild the online operators from the checked sections. No PDE solves,
  // no Hessian formation, no factorization — the whole point of the split —
  // no wave model, and no spectra: F's are built at its first apply (a MAP
  // read), which a forecast-only service never makes.
  f_ = std::move(products.f);
  hessian_ = std::make_unique<DataSpaceHessian>(
      DataSpaceHessian::from_factor(std::move(products.l), products.noise));
  posterior_ = std::make_unique<Posterior>(*f_.toeplitz, *prior_, *hessian_);
  predictor_ = std::make_unique<QoiPredictor>(
      cfg_.num_gauges, time_.num_intervals, std::move(products.cov),
      std::move(products.r));
  refresh_offline_epoch();
}

DigitalTwin::OfflineProducts DigitalTwin::take_offline(
    ArtifactBundle& bundle) {
  const TwinConfig cfg = unpack_config(bundle.vector("config"));
  // The stored fingerprint must reproduce from the stored config: a
  // mismatch means the bundle's identity and its contents disagree
  // (tampering, a partial rewrite, or a producer/consumer field-order skew).
  if (cfg.fingerprint() != bundle.fingerprint)
    throw std::runtime_error(
        "artifact bundle: config fingerprint mismatch (bundle identity "
        "disagrees with its stored configuration)");

  // Every section is checked against the config's sizes before anything is
  // sized by the config. F goes first: its payload is in the file, so once
  // its dimensions match, Nd, Nm and Nt are bounded by the file's size.
  const auto [grid_nx, grid_ny] = parameter_grid(cfg);
  const char* what = "artifact bundle config: sizes";
  const std::uint64_t nm = checked_mul_u64(grid_nx, grid_ny, what);
  const std::uint64_t nt = cfg.num_intervals;
  const std::uint64_t n = checked_mul_u64(cfg.num_sensors, nt, what);
  const std::uint64_t nqoi = checked_mul_u64(cfg.num_gauges, nt, what);

  const std::vector<double> sigma = bundle.vector("noise/sigma");
  if (sigma.size() != 1 || !(sigma[0] > 0.0))
    throw std::runtime_error("artifact bundle: bad noise/sigma section");
  P2oMap f = take_p2o(bundle, "p2o/F", cfg.num_sensors, nm, nt);
  DenseCholesky l = take_factor(bundle, n);
  Matrix cov = take_shaped(bundle, "qoi/cov", nqoi, nqoi, "Gamma_post(q)");
  Matrix r = take_shaped(bundle, "qoi/R", n, nqoi, "R");
  return {cfg, NoiseModel{sigma[0]}, std::move(f), std::move(l),
          std::move(cov), std::move(r)};
}

const DigitalTwin::WaveModel& DigitalTwin::wave() const {
  std::call_once(wave_->built, [this] {
    TRACE_SCOPE("offline", "build_wave_model");
    auto model = std::make_unique<AcousticGravityModel>(
        *mesh_, cfg_.order, cfg_.physics, cfg_.kernel);
    const auto [grid_nx, grid_ny] = parameter_grid(cfg_);
    const BottomSourceMap& src = model->source_map();
    if (src.grid_nx() != grid_nx || src.grid_ny() != grid_ny)
      throw std::logic_error(
          "DigitalTwin: the wave model's parameter grid differs from the "
          "one its config implies");
    // Sensors offshore over the source region (seaward 2/3 of the margin);
    // gauges near the coast (landward side), where early warning matters.
    const double lx = mesh_->length_x(), ly = mesh_->length_y();
    auto sensors = std::make_unique<ObservationOperator>(
        ObservationOperator::seafloor_sensors(
            *model, sensor_grid(cfg_.num_sensors, 0.08 * lx, 0.62 * lx,
                                0.06 * ly, 0.94 * ly)));
    auto gauges = std::make_unique<ObservationOperator>(
        ObservationOperator::surface_gauges(
            *model, sensor_grid(cfg_.num_gauges, 0.78 * lx, 0.92 * lx,
                                0.10 * ly, 0.90 * ly)));
    wave_->model = std::move(model);
    wave_->sensors = std::move(sensors);
    wave_->gauges = std::move(gauges);
  });
  return *wave_;
}

ArtifactBundle DigitalTwin::make_bundle() const {
  if (!online_ready())
    throw std::logic_error("make_bundle: offline phases not complete");
  ArtifactBundle b;
  b.fingerprint = cfg_.fingerprint();
  b.set("config", {kNumConfigFields}, pack_config(cfg_));
  b.set_vector("noise/sigma",
               std::span<const double>(&hessian_->noise().sigma, 1));
  set_p2o(b, "p2o/F", f_);
  b.set_vector("hessian/chol_L", hessian_->cholesky().packed());
  b.set_matrix("qoi/cov", predictor_->qoi_covariance());
  b.set_matrix("qoi/R", predictor_->forecast_slab());
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
  ArtifactBundle bundle = load_bundle(path);
  if (bundle.fingerprint != expected.fingerprint())
    throw std::runtime_error(
        "load_offline: bundle was produced by a different twin "
        "configuration: " +
        path);
  return DigitalTwin(std::move(bundle));
}

void DigitalTwin::refresh_offline_epoch() {
  const std::uint64_t next = offline_epoch_ ? *offline_epoch_ + 1 : 1;
  offline_epoch_ = std::make_shared<const std::uint64_t>(next);
}

void DigitalTwin::run_phase1() {
  const WaveModel& w = wave();
  TRACE_SCOPE("offline", "phase1");
  // Phases 2 and 3 built their operators from the F being replaced (the
  // posterior references it): retire the engines over them and drop them,
  // so the twin is not online-ready until both phases run again.
  refresh_offline_epoch();
  predictor_.reset();
  posterior_.reset();
  hessian_.reset();
  {
    ScopedTimer t(timers_, "phase1: form F");
    f_ = build_p2o_map(*w.model, *w.sensors, time_, &timers_);
  }
  {
    ScopedTimer t(timers_, "phase1: form Fq");
    fq_ = build_p2o_map(*w.model, *w.gauges, time_, &timers_);
  }
}

void DigitalTwin::run_phase2(const NoiseModel& noise) {
  // Phase 3 must follow with Fq, which a bundle-booted twin does not hold:
  // refuse before anything changes, so such a twin keeps serving.
  if (!f_.toeplitz || !fq_.toeplitz)
    throw std::logic_error(
        "run_phase2: phase 1 not run (a bundle-booted twin holds no Fq)");
  TRACE_SCOPE("offline", "phase2");
  ScopedTimer t(timers_, "phase2: form+factorize K");
  hessian_ = std::make_unique<DataSpaceHessian>(f_, *prior_, noise, &timers_);
  posterior_ = std::make_unique<Posterior>(*f_.toeplitz, *prior_, *hessian_);
  // R and Gamma_post(q) came from the old factor: not online-ready until
  // phase 3 rebuilds them from this one.
  predictor_.reset();
  refresh_offline_epoch();
}

void DigitalTwin::run_phase3() {
  if (!hessian_) throw std::logic_error("run_phase3: phase 2 not run");
  const P2oMap& fq = p2q();
  TRACE_SCOPE("offline", "phase3");
  ScopedTimer t(timers_, "phase3: QoI covariance + R");
  predictor_ =
      std::make_unique<QoiPredictor>(f_, fq, *prior_, *hessian_, &timers_);
  refresh_offline_epoch();
}

SyntheticEvent DigitalTwin::synthesize(const RuptureScenario& scenario,
                                       Rng& rng) const {
  const WaveModel& w = wave();
  SyntheticEvent ev;
  ev.m_true = scenario.sample(w.model->source_map(), time_);

  std::vector<Matrix> series;
  forward_multi_observe(*w.model, {w.sensors.get(), w.gauges.get()}, time_,
                        ev.m_true, series);
  const std::size_t nt = time_.num_intervals;
  const std::size_t nd = w.sensors->num_outputs();
  const std::size_t nq = w.gauges->num_outputs();
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
  if (d_obs.size() != data_dim())
    throw std::invalid_argument("infer: data size mismatch");
  const DenseCholesky& chol = hessian_->cholesky();
  InversionResult out;
  // z = L^{-1} d is the stream's z at t = Nt: the forecast R^T z is its
  // final tick, and m_map = G* K^{-1} d finishes the solve with L^{-T}.
  std::vector<double> z(d_obs.begin(), d_obs.end());
  Stopwatch w;
  chol.forward_solve_in_place(z);
  out.forecast = predictor_->predict_whitened(z);
  out.predict_seconds = w.seconds();
  w.reset();
  chol.backward_solve_in_place(z);
  out.m_map.resize(posterior_->parameter_dim());
  posterior_->apply_gstar(z, out.m_map);
  out.infer_seconds = w.seconds();
  return out;
}

StreamingEngine DigitalTwin::make_streaming(const StreamingOptions& options,
                                            TimerRegistry* timers) const {
  if (!online_ready())
    throw std::logic_error("make_streaming: offline phases not complete");
  return StreamingEngine(*posterior_, *predictor_, options, timers,
                         offline_epoch_);
}

const P2oMap& DigitalTwin::p2q() const {
  if (!fq_.toeplitz)
    throw std::logic_error("p2q: no Fq (phase 1 not run, or bundle-booted)");
  return fq_;
}

std::vector<double> DigitalTwin::displacement_field(
    std::span<const double> m) const {
  const std::size_t nm = prior_->dim();
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
