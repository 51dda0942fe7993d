#include "core/scenario_bank.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <span>
#include <stdexcept>

#include "linalg/blas.hpp"
#include "parallel/parallel_for.hpp"
#include "util/table.hpp"

namespace tsunami {

namespace {

const DigitalTwin& require_twin(
    const std::shared_ptr<const DigitalTwin>& twin) {
  if (!twin) throw std::invalid_argument("ScenarioBank: null twin");
  return *twin;
}

}  // namespace

ScenarioBank::ScenarioBank(const DigitalTwin& twin,
                           std::vector<ScenarioSpec> specs)
    : twin_(twin), specs_(std::move(specs)) {
  if (specs_.empty())
    throw std::invalid_argument("ScenarioBank: empty scenario list");
}

ScenarioBank::ScenarioBank(std::shared_ptr<const DigitalTwin> twin,
                           std::vector<ScenarioSpec> specs)
    : owned_(std::move(twin)), twin_(require_twin(owned_)),
      specs_(std::move(specs)) {
  if (specs_.empty())
    throw std::invalid_argument("ScenarioBank: empty scenario list");
}

ScenarioBank ScenarioBank::from_bundle(const std::string& bundle_path,
                                       std::size_t n, unsigned seed) {
  auto twin = std::make_shared<const DigitalTwin>(
      DigitalTwin::load_offline(bundle_path));
  std::vector<ScenarioSpec> specs = spread(*twin, n, seed);
  return ScenarioBank(std::move(twin), std::move(specs));
}

std::vector<ScenarioSpec> ScenarioBank::spread(const DigitalTwin& twin,
                                               std::size_t n, unsigned seed) {
  if (n == 0) throw std::invalid_argument("ScenarioBank::spread: n == 0");
  const double lx = twin.mesh().length_x();
  const double ly = twin.mesh().length_y();
  Rng rng(seed);
  std::vector<ScenarioSpec> specs;
  specs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double f =
        n > 1 ? static_cast<double>(i) / static_cast<double>(n - 1) : 0.5;
    ScenarioSpec s;
    // Stratified magnitude ladder with jitter: the bank always spans the
    // [8.0, 9.1] range instead of clustering.
    s.magnitude = 8.0 + 1.1 * f + 0.05 * (rng.uniform() - 0.5);
    // Nucleation swept along strike over the instrumented core of the
    // locked zone (edge events lose observability to the domain boundary).
    s.hypocenter_x = lx * (0.28 + 0.14 * rng.uniform());
    s.hypocenter_y = ly * (0.25 + 0.5 * f);
    s.rise_time = 8.0 + 8.0 * rng.uniform();
    s.rupture_speed = 2000.0 + 1000.0 * rng.uniform();
    s.seed = seed + 101 * static_cast<unsigned>(i + 1);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "Mw%.2f-h%02.0f%%", s.magnitude,
                  100.0 * s.hypocenter_y / ly);
    s.name = buf;
    specs.push_back(s);
  }
  return specs;
}

RuptureConfig ScenarioBank::rupture_config(const ScenarioSpec& spec) const {
  const double lx = twin_.mesh().length_x();
  const double ly = twin_.mesh().length_y();
  RuptureConfig rc;
  if (spec.style == RuptureStyle::kMarginWide) {
    rc = margin_wide_scenario(lx, ly, spec.magnitude, spec.seed);
  } else {
    // Compact event: dominant asperity at the nucleation point (onset time
    // zero at the source, so the short seed-scale windows observe the whole
    // rupture), plus a secondary along-strike asperity for larger events.
    Rng rng(spec.seed);
    const double peak = 3.0 * std::pow(10.0, 0.5 * (spec.magnitude - 8.7));
    const double cx = spec.hypocenter_x >= 0.0 ? spec.hypocenter_x : 0.35 * lx;
    const double cy = spec.hypocenter_y >= 0.0 ? spec.hypocenter_y : 0.5 * ly;
    Asperity main;
    main.x0 = cx;
    main.y0 = cy;
    main.rx = lx * (0.20 + 0.06 * rng.uniform());
    main.ry = ly * (0.22 + 0.08 * rng.uniform());
    main.peak_uplift = peak;
    main.angle = 0.25 * (rng.uniform() - 0.5);
    rc.asperities.push_back(main);
    if (spec.magnitude >= 8.5) {
      Asperity side = main;
      const double dir = rng.uniform() < 0.5 ? -1.0 : 1.0;
      side.y0 = std::clamp(cy + dir * ly * (0.18 + 0.1 * rng.uniform()),
                           0.08 * ly, 0.92 * ly);
      side.rx *= 0.8;
      side.ry *= 0.7;
      side.peak_uplift = peak * (0.4 + 0.3 * rng.uniform());
      rc.asperities.push_back(side);
    }
    rc.hypocenter_x = cx;
    rc.hypocenter_y = cy;
  }
  if (spec.hypocenter_x >= 0.0) rc.hypocenter_x = spec.hypocenter_x;
  if (spec.hypocenter_y >= 0.0) rc.hypocenter_y = spec.hypocenter_y;
  rc.rise_time = spec.rise_time;
  rc.rupture_speed = spec.rupture_speed;
  return rc;
}

void ScenarioBank::synthesize(unsigned noise_seed) {
  events_.assign(specs_.size(), SyntheticEvent{});
  // Parallel over scenarios; every draw comes from a per-scenario stream
  // seeded by (noise_seed, index) alone, and the forward model writes only
  // disjoint state, so the bank is bit-identical at any thread count.
  parallel_for(specs_.size(), [&](std::size_t i) {
    const RuptureScenario scenario(rupture_config(specs_[i]));
    Rng rng(noise_seed + static_cast<unsigned>(i));
    events_[i] = twin_.synthesize(scenario, rng);
  });
  std::vector<double> sigmas;
  sigmas.reserve(events_.size());
  for (const auto& ev : events_) sigmas.push_back(ev.noise.sigma);
  // One absolute noise floor for the whole bank: the median of the per-event
  // relative calibrations. A real seafloor network has fixed instrument
  // noise, not noise that scales with each event — and it lets the Hessian
  // be factorized once against exactly the calibration every event sees.
  std::nth_element(sigmas.begin(), sigmas.begin() + sigmas.size() / 2,
                   sigmas.end());
  const double sigma = sigmas[sigmas.size() / 2];
  parallel_for(events_.size(), [&](std::size_t i) {
    SyntheticEvent& ev = events_[i];
    ev.noise = NoiseModel{sigma};
    Rng rng(noise_seed + 7919u * static_cast<unsigned>(i + 1));
    ev.d_obs = ev.d_true;
    for (auto& v : ev.d_obs) v += sigma * rng.normal();
  });
}

NoiseModel ScenarioBank::shared_noise() const {
  if (events_.empty())
    throw std::logic_error("ScenarioBank::shared_noise: synthesize() first");
  return events_.front().noise;
}

namespace {

double correlation(std::span<const double> a, std::span<const double> b) {
  return dot(a, b) / (nrm2(a) * nrm2(b) + 1e-30);
}

}  // namespace

SweepReport ScenarioBank::sweep(const StreamingEngine& engine,
                                double tolerance) const {
  if (events_.size() != specs_.size())
    throw std::logic_error("ScenarioBank::sweep: synthesize() first");
  // Full dimension check up front, before any parallel work starts
  // (parallel_for does propagate exceptions, but a mismatch should fail
  // before the sweep launches).
  if (engine.data_dim() != twin_.data_dim() ||
      engine.num_ticks() != twin_.time_grid().num_intervals ||
      engine.qoi_dim() != events_.front().q_true.size())
    throw std::invalid_argument(
        "ScenarioBank::sweep: engine/twin dimension mismatch");
  if (!(tolerance > 0.0))
    throw std::invalid_argument("ScenarioBank::sweep: tolerance must be > 0");

  const std::size_t nt = engine.num_ticks();
  const std::size_t nd = engine.block_size();
  const double dt = twin_.config().observation_dt;

  SweepReport report;
  report.tolerance = tolerance;
  report.scenarios.resize(specs_.size());
  // Every push latency of the sweep, scenario-major: scenario i writes only
  // its own nt slots under parallel_for.
  std::vector<double> push_samples(specs_.size() * nt);

  Stopwatch wall;
  parallel_for(specs_.size(), [&](std::size_t i) {
    const SyntheticEvent& ev = events_[i];
    ScenarioResult& res = report.scenarios[i];
    res.spec = specs_[i];
    res.ticks_total = nt;

    StreamingAssimilator assim = engine.start();
    Matrix q_history(nt, engine.qoi_dim());
    double sum_push_seconds = 0.0;
    for (std::size_t t = 0; t < nt; ++t) {
      Stopwatch push_watch;
      assim.push(t, std::span<const double>(ev.d_obs).subspan(t * nd, nd));
      const double push_seconds = push_watch.seconds();
      push_samples[i * nt + t] = push_seconds;
      res.max_push_seconds = std::max(res.max_push_seconds, push_seconds);
      sum_push_seconds += push_seconds;
      const auto& q = assim.qoi_mean();
      std::copy(q.begin(), q.end(), q_history.row(t).begin());
    }
    res.mean_push_seconds = sum_push_seconds / static_cast<double>(nt);

    // The final tick is the batch answer: infer()'s forecast and MAP.
    const Forecast fc = assim.forecast();
    const std::vector<double>& q_final = fc.mean;

    // Time-to-confident-forecast: walk back from the final tick while the
    // rolling mean stays within tolerance of the full-data forecast.
    const double q_norm = nrm2(q_final) + 1e-30;
    std::size_t confident = nt;
    for (std::size_t t = nt; t-- > 0;) {
      double diff2 = 0.0;
      const auto q_t = q_history.row(t);
      for (std::size_t j = 0; j < q_t.size(); ++j) {
        const double d = q_t[j] - q_final[j];
        diff2 += d * d;
      }
      if (std::sqrt(diff2) / q_norm > tolerance) break;
      confident = t + 1;
    }
    res.confident_tick = confident;
    res.confident_seconds = static_cast<double>(confident) * dt;

    const auto b_true = twin_.displacement_field(ev.m_true);
    const auto b_map = twin_.displacement_field(assim.map_snapshot());
    res.displacement_error = DigitalTwin::relative_error(b_map, b_true);
    res.displacement_correlation = correlation(b_map, b_true);
    res.peak_true_uplift = amax(b_true);
    res.peak_inferred_uplift = amax(b_map);

    res.forecast_error = DigitalTwin::relative_error(q_final, ev.q_true);
    res.forecast_correlation = correlation(q_final, ev.q_true);
    int inside = 0, total = 0;
    for (std::size_t j = 0; j < q_final.size(); ++j) {
      if (fc.stddev[j] < 1e-12) continue;
      ++total;
      if (ev.q_true[j] >= fc.lower95[j] && ev.q_true[j] <= fc.upper95[j])
        ++inside;
    }
    res.ci_coverage =
        total > 0 ? static_cast<double>(inside) / static_cast<double>(total)
                  : 1.0;
  });
  report.wall_seconds = wall.seconds();

  report.push_latency = summarize_latencies(std::move(push_samples));

  const double n = static_cast<double>(report.scenarios.size());
  for (const auto& r : report.scenarios) {
    report.mean_confident_seconds += r.confident_seconds / n;
    report.max_confident_seconds =
        std::max(report.max_confident_seconds, r.confident_seconds);
    report.mean_confident_fraction += static_cast<double>(r.confident_tick) /
                                      static_cast<double>(r.ticks_total) / n;
    report.mean_push_seconds += r.mean_push_seconds / n;
    report.max_push_seconds =
        std::max(report.max_push_seconds, r.max_push_seconds);
    report.mean_displacement_error += r.displacement_error / n;
    report.mean_displacement_correlation += r.displacement_correlation / n;
    report.mean_forecast_error += r.forecast_error / n;
    report.mean_forecast_correlation += r.forecast_correlation / n;
    report.mean_ci_coverage += r.ci_coverage / n;
  }
  return report;
}

std::string SweepReport::table() const {
  TextTable t({"Scenario", "Mw", "confident @", "ticks", "mean push",
               "max push", "b corr", "b err", "q err", "q corr", "CI cov",
               "peak b [m]"});
  for (const auto& r : scenarios) {
    char ticks[32];
    std::snprintf(ticks, sizeof(ticks), "%zu/%zu", r.confident_tick,
                  r.ticks_total);
    t.row()
        .cell(r.spec.name)
        .cell(r.spec.magnitude, 2)
        .cell(format_duration(r.confident_seconds) + " data time")
        .cell(ticks)
        .cell(format_duration(r.mean_push_seconds))
        .cell(format_duration(r.max_push_seconds))
        .cell(r.displacement_correlation, 3)
        .cell(r.displacement_error, 3)
        .cell(r.forecast_error, 3)
        .cell(r.forecast_correlation, 3)
        .cell(r.ci_coverage, 2)
        .cell(r.peak_true_uplift, 2);
  }
  t.row()
      .cell("sweep mean")
      .cell("")
      .cell(format_duration(mean_confident_seconds) + " data time")
      .cell("")
      .cell(format_duration(mean_push_seconds))
      .cell(format_duration(max_push_seconds))
      .cell(mean_displacement_correlation, 3)
      .cell(mean_displacement_error, 3)
      .cell(mean_forecast_error, 3)
      .cell(mean_forecast_correlation, 3)
      .cell(mean_ci_coverage, 2)
      .cell("");
  char tail[160];
  std::snprintf(tail, sizeof(tail),
                "push latency over %zu pushes: p50 %s | p95 %s | p99 %s | "
                "max %s\n",
                push_latency.count, format_duration(push_latency.p50).c_str(),
                format_duration(push_latency.p95).c_str(),
                format_duration(push_latency.p99).c_str(),
                format_duration(push_latency.max).c_str());
  return t.str() + tail;
}

}  // namespace tsunami
