// The flagship experiment: a reduced-scale reproduction of the paper's
// Cascadia margin-wide inversion (SecV-C, Figs. 3-4, Table III).
//
//   $ ./examples/cascadia_twin [--medium]
//
// Builds a synthetic Cascadia subduction-zone twin (shelf/slope/abyssal
// bathymetry, offshore sensor network, coastal wave-height gauges), drives
// it with a kinematic margin-wide Mw 8.7 rupture, and:
//   - runs offline Phases 1-3, printing a Table-III-style time table,
//   - runs the online Phase 4 inversion from 1%-noise data,
//   - writes Fig.-3-style field CSVs (true vs inferred displacement,
//     pointwise posterior std dev) and Fig.-4-style gauge series CSVs
//     (true QoI, predicted QoI, 95% credible intervals) to ./artifacts/.

#include <cstdio>
#include <cstring>
#include <filesystem>

#include "core/digital_twin.hpp"
#include "linalg/blas.hpp"
#include "util/table.hpp"

namespace {

tsunami::TwinConfig cascadia_config(bool medium) {
  using namespace tsunami;
  TwinConfig c;
  // Synthetic Cascadia margin (stand-in for GEBCO). The shelf is
  // kept >= 500 m so the explicit acoustic CFL stays tractable on CPU.
  c.bathymetry = BathymetryConfig{};
  c.bathymetry.length_x = 120e3;
  c.bathymetry.length_y = 200e3;
  c.bathymetry.depth_abyssal = 2600.0;
  c.bathymetry.depth_shelf = 600.0;
  c.bathymetry.min_depth = 500.0;
  c.mesh_nx = medium ? 12 : 8;
  c.mesh_ny = medium ? 18 : 12;
  c.mesh_nz = 2;
  c.order = 2;
  c.num_sensors = medium ? 20 : 10;   // paper: 600
  c.num_gauges = medium ? 8 : 5;      // paper: 21
  c.num_intervals = medium ? 24 : 16; // paper: 420 (1 Hz for 420 s)
  c.observation_dt = 5.0;
  c.cfl = 0.35;
  c.prior.sigma = 0.3;                // seafloor velocity scale [m/s]
  c.prior.correlation_length = 30e3;
  c.noise_level = 0.01;               // the paper's 1% relative noise
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tsunami;
  const bool medium = argc > 1 && std::strcmp(argv[1], "--medium") == 0;

  const TwinConfig config = cascadia_config(medium);
  std::printf("=== Cascadia digital twin (reduced scale%s) ===\n",
              medium ? ", --medium" : "");
  DigitalTwin twin(config);
  const auto& grid = twin.time_grid();
  std::printf("mesh %zux%zux%zu order %zu | states %zu | parameters %zu "
              "(%zu spatial x %zu temporal)\n",
              config.mesh_nx, config.mesh_ny, config.mesh_nz, config.order,
              twin.model().state_dim(), twin.parameter_dim(),
              twin.model().source_map().parameter_dim(),
              grid.num_intervals);
  std::printf("sensors %zu | gauges %zu | T = %.0f s | dt = %.3f s "
              "(%zu substeps/interval)\n\n",
              config.num_sensors, config.num_gauges, grid.total_time(),
              grid.dt, grid.substeps);

  // Margin-wide Mw 8.7 kinematic rupture (the paper's scenario class).
  const RuptureConfig rupture = margin_wide_scenario(
      config.bathymetry.length_x, config.bathymetry.length_y, 8.7, 2025);
  const RuptureScenario scenario(rupture);
  std::printf("rupture: %zu asperities, vr = %.0f m/s, rise time %.0f s\n",
              rupture.asperities.size(), rupture.rupture_speed,
              rupture.rise_time);

  Rng rng(42);
  const SyntheticEvent event = twin.synthesize(scenario, rng);
  std::printf("data: peak |p| = %.1f Pa at sensors, noise sigma = %.2f Pa "
              "(1%% relative)\n\n",
              amax(event.d_true), event.noise.sigma);

  // Offline phases with Table-III-style reporting.
  twin.run_offline(event.noise);
  const auto& timers = twin.timers();
  TextTable phase_table({"Phase", "Task", "Compute time"});
  phase_table.row().cell("1").cell("form F : m -> d").cell(
      format_duration(timers.total("phase1: form F")));
  phase_table.row().cell("1").cell("form Fq : m -> q").cell(
      format_duration(timers.total("phase1: form Fq")));
  phase_table.row().cell("2").cell("form K := Gn + F G*").cell(
      format_duration(timers.total("form K")));
  phase_table.row().cell("2").cell("factorize K").cell(
      format_duration(timers.total("factorize K")));
  phase_table.row().cell("3").cell("compute Gamma_post(q)").cell(
      format_duration(timers.total("compute Gamma_post(q)")));
  phase_table.row().cell("3").cell("compute Q : d -> q").cell(
      format_duration(timers.total("compute Q")));

  // Online phase.
  const InversionResult result = twin.infer(event.d_obs);
  phase_table.row().cell("4").cell("infer parameters m_map").cell(
      format_duration(result.infer_seconds));
  phase_table.row().cell("4").cell("predict QoI q_map").cell(
      format_duration(result.predict_seconds));
  std::printf("%s\n", phase_table.str().c_str());

  // Quality metrics (Fig. 3 analogue).
  const auto b_true = twin.displacement_field(event.m_true);
  const auto b_map = twin.displacement_field(result.m_map);
  const double b_err = DigitalTwin::relative_error(b_map, b_true);
  std::printf("inferred seafloor displacement: relative L2 error = %.3f, "
              "peak true uplift = %.2f m, peak inferred = %.2f m\n",
              b_err, amax(b_true), amax(b_map));

  // Pointwise posterior std dev at a transect of seafloor points (Fig. 3e).
  const auto& src = twin.model().source_map();
  const std::size_t nx1 = src.grid_nx();
  const std::size_t probe_row = src.grid_ny() / 2;
  std::vector<double> sigma_transect;
  for (std::size_t a = 0; a < nx1; ++a) {
    const std::size_t r = a + nx1 * probe_row;
    double var = 0.0;
    for (std::size_t t = 0; t < grid.num_intervals; ++t)
      var += twin.posterior().pointwise_variance(r, t) *
             grid.interval() * grid.interval();
    sigma_transect.push_back(std::sqrt(var));
  }

  // Artifacts.
  std::filesystem::create_directories("artifacts");
  {
    // Fig. 3 fields along the parameter grid (x-fastest).
    std::vector<double> xs, ys;
    for (std::size_t r = 0; r < src.parameter_dim(); ++r) {
      const auto xy = src.node_xy(r);
      xs.push_back(xy[0]);
      ys.push_back(xy[1]);
    }
    write_csv("artifacts/fig3_displacement.csv",
              {"x", "y", "b_true", "b_map"}, {xs, ys, b_true, b_map});
    std::vector<double> tx;
    for (std::size_t a = 0; a < nx1; ++a)
      tx.push_back(src.node_xy(a + nx1 * probe_row)[0]);
    write_csv("artifacts/fig3_posterior_sigma_transect.csv",
              {"x", "sigma_displacement"}, {tx, sigma_transect});
  }
  {
    // Fig. 4 series: per gauge, true vs predicted with CI bands.
    const auto& fc = result.forecast;
    std::vector<std::vector<double>> cols;
    std::vector<std::string> names;
    names.push_back("t");
    cols.push_back(grid.observation_times());
    for (std::size_t g = 0; g < fc.num_gauges; ++g) {
      std::vector<double> truth(fc.num_times), mean(fc.num_times),
          lo(fc.num_times), hi(fc.num_times);
      for (std::size_t t = 0; t < fc.num_times; ++t) {
        truth[t] = event.q_true[t * fc.num_gauges + g];
        mean[t] = fc.at(fc.mean, t, g);
        lo[t] = fc.at(fc.lower95, t, g);
        hi[t] = fc.at(fc.upper95, t, g);
      }
      // Built by append (not `"g" + std::to_string(g)`) to dodge a GCC 12
      // -Wrestrict false positive in the char* + string&& operator+ inline.
      std::string tag("g");
      tag += std::to_string(g);
      names.push_back(tag + "_true");
      names.push_back(tag + "_pred");
      names.push_back(tag + "_lo95");
      names.push_back(tag + "_hi95");
      cols.push_back(truth);
      cols.push_back(mean);
      cols.push_back(lo);
      cols.push_back(hi);
    }
    write_csv("artifacts/fig4_forecasts.csv", names, cols);
  }
  std::printf("wrote artifacts/fig3_displacement.csv, "
              "artifacts/fig3_posterior_sigma_transect.csv, "
              "artifacts/fig4_forecasts.csv\n");

  // Forecast skill summary (Fig. 4 analogue).
  const auto& fc = result.forecast;
  int inside = 0, total = 0;
  for (std::size_t i = 0; i < fc.mean.size(); ++i) {
    if (fc.stddev[i] < 1e-12) continue;
    ++total;
    if (event.q_true[i] >= fc.lower95[i] && event.q_true[i] <= fc.upper95[i])
      ++inside;
  }
  std::printf("forecast: 95%% CI empirical coverage of the true QoI = "
              "%.0f%% (%d/%d)\n",
              100.0 * inside / std::max(total, 1), inside, total);
  return 0;
}
