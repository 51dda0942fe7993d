// Table III reproduction: compute time for each phase of the inference and
// prediction framework, in the paper's "count x unit-time ~ total" format,
// with the online Phase 4 measured on real data.
//
// Shape expectations: Phase 1 (PDE solves) dominates the offline cost by
// orders of magnitude; Phases 2-3 are dense linear algebra (K, V and W each
// one structured product of F's and Fq's first block columns: prior applies
// and one GEMM; then K's Cholesky and solve); Phase 4 is milliseconds
// (paper: < 0.2 s at the 10^9-parameter scale).

#include <cstdio>

#include "core/digital_twin.hpp"
#include "util/table.hpp"

int main() {
  using namespace tsunami;

  TwinConfig config = TwinConfig::tiny();
  config.num_sensors = 10;
  config.num_gauges = 4;
  config.num_intervals = 16;
  DigitalTwin twin(config);
  const std::size_t nd = config.num_sensors, nq = config.num_gauges;
  const std::size_t nt = config.num_intervals;

  std::printf("=== Table III: per-phase compute time ===\n");
  std::printf("parameters: %zu | observations: %zu | QoI: %zu\n\n",
              twin.parameter_dim(), twin.data_dim(), nq * nt);

  // Synthetic event to calibrate noise and drive Phase 4.
  const RuptureConfig rcfg = margin_wide_scenario(
      config.bathymetry.length_x, config.bathymetry.length_y, 8.7, 7);
  const RuptureScenario scenario(rcfg);
  Rng rng(1);
  const SyntheticEvent event = twin.synthesize(scenario, rng);

  twin.run_offline(event.noise);
  const InversionResult result = twin.infer(event.d_obs);
  const auto& t = twin.timers();

  TextTable table({"Phase", "Task", "count x unit", "compute time"});
  auto fmt_count = [](std::size_t count, double total) {
    return std::to_string(count) + " x " + format_duration(total /
        static_cast<double>(count ? count : 1));
  };
  const double t_f = t.total("phase1: form F");
  const double t_fq = t.total("phase1: form Fq");
  table.row().cell("1").cell("form F : m -> d (adjoint PDE solves)").cell(
      fmt_count(nd, t_f)).cell(format_duration(t_f));
  table.row().cell("1").cell("form Fq : m -> q (adjoint PDE solves)").cell(
      fmt_count(nq, t_fq)).cell(format_duration(t_fq));
  const double t_k = t.total("form K");
  table.row().cell("2").cell("form K := Gn + F Gpr F^T (structured product)")
      .cell("1 x " + format_duration(t_k)).cell(format_duration(t_k));
  const double t_chol = t.total("factorize K");
  table.row().cell("2").cell("factorize K (Cholesky)").cell(
      "1 x " + format_duration(t_chol)).cell(format_duration(t_chol));
  const double t_cov = t.total("compute Gamma_post(q)");
  table.row().cell("3").cell("compute Gamma_post(q)").cell(
      fmt_count(nq * nt, t_cov)).cell(format_duration(t_cov));
  const double t_q = t.total("compute Q");
  table.row().cell("3").cell("compute Q : d -> q").cell(
      "1 x " + format_duration(t_q)).cell(format_duration(t_q));
  table.row().cell("4").cell("infer parameters m_map").cell("1 event").cell(
      format_duration(result.infer_seconds));
  table.row().cell("4").cell("predict QoI q_map").cell("1 event").cell(
      format_duration(result.predict_seconds));
  std::printf("%s\n", table.str().c_str());

  const double offline = t_f + t_fq + t_k + t_chol + t_cov + t_q;
  const double online = result.infer_seconds + result.predict_seconds;
  std::printf("offline total: %s | online total: %s | ratio %.0fx\n",
              format_duration(offline).c_str(),
              format_duration(online).c_str(), offline / online);
  std::printf("shape check (paper): Phase 1 dominates offline; online "
              "inference is real-time (paper: <0.2 s; here %s at reduced "
              "scale).\n",
              format_duration(online).c_str());
  return 0;
}
