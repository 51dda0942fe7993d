// Quickstart: build a tsunami digital twin for a small synthetic basin,
// simulate a rupture, and run the real-time Bayesian inversion + forecast.
//
//   $ ./examples/quickstart
//
// This walks the paper's four phases end to end at laptop scale:
//   Phase 1: adjoint wave propagations -> p2o/p2q Toeplitz maps
//   Phase 2: data-space Hessian K + Cholesky
//   Phase 3: QoI covariance + the forecast slab R (the data-to-QoI map,
//            factored as R^T L^-1)
//   Phase 4: (online, per event) one forward solve z = L^-1 d, then the
//            wave-height forecast R^T z and the seafloor motion m_map

#include <cstdio>

#include "core/digital_twin.hpp"
#include "linalg/blas.hpp"
#include "util/table.hpp"

int main() {
  using namespace tsunami;

  // 1. Configure a small flat-bottomed basin twin (see TwinConfig for all
  //    the knobs; tiny() keeps this demo under a minute).
  TwinConfig config = TwinConfig::tiny();
  std::printf("Building digital twin: %zux%zux%zu hex mesh, order %zu, "
              "%zu sensors, %zu gauges, %zu observation intervals\n",
              config.mesh_nx, config.mesh_ny, config.mesh_nz, config.order,
              config.num_sensors, config.num_gauges, config.num_intervals);
  DigitalTwin twin(config);
  std::printf("  states: %zu  parameters: %zu  observations: %zu\n",
              twin.model().state_dim(), twin.parameter_dim(),
              twin.data_dim());

  // 2. Simulate a "true" earthquake with the kinematic rupture model and
  //    generate noisy seafloor pressure observations (1% relative noise).
  RuptureConfig rupture_cfg;
  Asperity asperity;
  asperity.x0 = 0.35 * config.bathymetry.length_x;
  asperity.y0 = 0.50 * config.bathymetry.length_y;
  asperity.rx = 15e3;
  asperity.ry = 22e3;
  asperity.peak_uplift = 2.0;
  rupture_cfg.asperities.push_back(asperity);
  rupture_cfg.hypocenter_x = asperity.x0;
  rupture_cfg.hypocenter_y = asperity.y0;
  const RuptureScenario scenario(rupture_cfg);

  Rng rng(7);
  std::printf("\nSynthesizing rupture event (forward PDE solve)...\n");
  const SyntheticEvent event = twin.synthesize(scenario, rng);
  std::printf("  peak sensor pressure: %.1f Pa, noise sigma: %.1f Pa\n",
              amax(event.d_true), event.noise.sigma);

  // 3. Offline phases (one-time precomputation).
  std::printf("\nRunning offline phases 1-3...\n");
  twin.run_offline(event.noise);
  for (const auto& name : twin.timers().names())
    std::printf("  %-28s %s\n", name.c_str(),
                format_duration(twin.timers().total(name)).c_str());

  // 4. Online phase: real-time inference and forecasting.
  std::printf("\nPhase 4 (online, real-time):\n");
  const InversionResult result = twin.infer(event.d_obs);
  std::printf("  infer %zu parameters: %s\n", result.m_map.size(),
              format_duration(result.infer_seconds).c_str());
  std::printf("  predict %zu QoI:      %s\n", result.forecast.mean.size(),
              format_duration(result.predict_seconds).c_str());

  // 5. Report quality.
  const auto b_true = twin.displacement_field(event.m_true);
  const auto b_map = twin.displacement_field(result.m_map);
  std::printf("\nInversion quality:\n");
  std::printf("  displacement relative L2 error: %.3f\n",
              DigitalTwin::relative_error(b_map, b_true));

  TextTable table({"gauge", "t [s]", "true eta [m]", "predicted [m]",
                   "95% CI half-width [m]"});
  const auto& fc = result.forecast;
  const std::size_t t_last = fc.num_times - 1;
  for (std::size_t g = 0; g < fc.num_gauges; ++g) {
    table.row()
        .cell(static_cast<long>(g))
        .cell(twin.time_grid().total_time(), 0)
        .cell(event.q_true[t_last * fc.num_gauges + g], 4)
        .cell(fc.at(fc.mean, t_last, g), 4)
        .cell(1.96 * fc.at(fc.stddev, t_last, g), 4);
  }
  std::printf("\nFinal-time wave-height forecasts:\n%s", table.str().c_str());
  return 0;
}
