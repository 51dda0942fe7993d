// Per-tick latency of the streaming assimilation engine vs. tick index, and
// against the two re-solve alternatives it replaces:
//
//   stream push      — StreamingAssimilator::push: extend z = L^{-1} d by one
//                      block row + two slab accumulations. The R term is
//                      constant; the forward-substitution extension and the
//                      MAP term (the causal W* row block of tick t spans
//                      (t + 1) Nm columns) grow linearly in the tick index,
//                      so early ticks are cheapest and the whole-event W*
//                      traffic is half that of a full-width slab. There is
//                      no per-tick refactorization anywhere.
//   truncated solve  — from-scratch solve of the leading (t Nd) subsystem on
//                      the cached factor (prefix forward + backward
//                      substitution, O((t Nd)^2), plus the matrix-free G*
//                      lift, whose FFT cost is constant per tick and
//                      dominates at seed scale): the cheapest
//                      non-incremental exact alternative.
//   full re-solve    — batch DigitalTwin::infer on the zero-padded window
//                      every tick: what the pre-streaming front door had to
//                      do to refresh m_map + forecast mid-event.
//
// Expected shape: the push column stays in tens of microseconds, growing
// linearly with the tick index (no refactorization; the MAP sweep widens by
// Nm columns per tick), while every re-solve pays the milliseconds-per-tick
// lift the streaming engine amortized into its offline slabs. The last-quarter / first-quarter mean
// latencies and the whole-event totals are printed at the end (quoted in
// the PR description).

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/digital_twin.hpp"
#include "obs/trace.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main() {
  using namespace tsunami;
  namespace bu = tsunami::benchutil;

  TwinConfig config = TwinConfig::tiny();
  config.num_sensors = 8;
  config.num_gauges = 3;
  config.num_intervals = 48;  // enough ticks to see the growth law
  config.observation_dt = 2.0;
  DigitalTwin twin(config);

  RuptureConfig rc;
  Asperity a;
  a.x0 = 0.3 * twin.mesh().length_x();
  a.y0 = 0.5 * twin.mesh().length_y();
  a.rx = 16e3;
  a.ry = 24e3;
  a.peak_uplift = 2.2;
  rc.asperities.push_back(a);
  rc.hypocenter_x = a.x0;
  rc.hypocenter_y = a.y0;
  Rng rng(9);
  const SyntheticEvent event = twin.synthesize(RuptureScenario(rc), rng);
  twin.run_offline(event.noise);
  const StreamingEngine engine = twin.make_streaming({.track_map = true});

  const std::size_t nt = engine.num_ticks();
  const std::size_t nd = engine.block_size();
  std::printf("=== Streaming assimilation: per-tick latency ===\n");
  std::printf(
      "data dim %zu (%zu sensors x %zu ticks) | parameters %zu | "
      "streaming precompute %s (offline, once per network)\n\n",
      engine.data_dim(), nd, nt, engine.parameter_dim(),
      format_duration(engine.precompute_seconds()).c_str());

  // Per-tick push latency: min over replays (the usual microbenchmark
  // discipline — scheduling noise only ever adds time).
  const int replays = bu::reps(7);
  std::vector<double> push_s(nt, 1e300);
  StreamingAssimilator assim = engine.start();
  for (int r = 0; r < replays; ++r) {
    assim.reset();
    for (std::size_t t = 0; t < nt; ++t) {
      assim.push(t, std::span<const double>(event.d_obs).subspan(t * nd, nd));
      push_s[t] = std::min(push_s[t], assim.last_push_seconds());
    }
  }

  // Trace A/B: the same replay with the flight recorder off (the default —
  // TRACE_SCOPE must cost one relaxed load) vs on (two clock reads + four
  // relaxed stores per span). Alternating off/on within each round (the
  // bench_fftmatvec discipline) so neither mode systematically runs colder,
  // with at least two rounds so each mode gets a warm pass even in quick
  // mode. The off-median matching the untraced push medians above is the
  // "disabled tracing adds zero overhead" guard; both medians land in
  // BENCH_streaming.json.
  const bool was_tracing = obs::trace_enabled();
  std::vector<double> ab_off(nt, 1e300);
  std::vector<double> ab_on(nt, 1e300);
  for (int r = 0; r < std::max(2, replays); ++r) {
    for (const bool traced : {false, true}) {
      obs::set_trace_enabled(traced);
      std::vector<double>& dst = traced ? ab_on : ab_off;
      assim.reset();
      for (std::size_t t = 0; t < nt; ++t) {
        assim.push(t,
                   std::span<const double>(event.d_obs).subspan(t * nd, nd));
        dst[t] = std::min(dst[t], assim.last_push_seconds());
      }
    }
  }
  obs::set_trace_enabled(was_tracing);
  if (!was_tracing) obs::clear_trace();  // keep the A/B out of TSUNAMI_TRACE
  const double push_off_ns = percentile(ab_off, 50.0) * 1e9;
  const double push_on_ns = percentile(ab_on, 50.0) * 1e9;
  std::printf("trace A/B median push: off %s | on %s (%.3fx)\n\n",
              format_duration(push_off_ns / 1e9).c_str(),
              format_duration(push_on_ns / 1e9).c_str(),
              push_on_ns / push_off_ns);

  // Truncated exact re-solve at tick t (prefix solves + prefix G* + Fq m).
  const DenseCholesky& chol = twin.hessian().cholesky();
  std::vector<double> trunc_s(nt, 1e300);
  std::vector<double> u(engine.data_dim());
  std::vector<double> m(engine.parameter_dim());
  std::vector<double> q(engine.qoi_dim());
  for (int r = 0; r < std::max(2, replays / 2); ++r) {
    for (std::size_t t = 0; t < nt; ++t) {
      const std::size_t p = (t + 1) * nd;
      Stopwatch w;
      std::copy(event.d_obs.begin(),
                event.d_obs.begin() + static_cast<std::ptrdiff_t>(p),
                u.begin());
      chol.forward_solve_range(std::span<double>(u), 0, p);
      chol.backward_solve_prefix(std::span<double>(u), p);
      twin.posterior().apply_gstar_prefix(
          std::span<const double>(u).first(p), t + 1, std::span<double>(m));
      twin.predictor().apply_fq_mean(m, std::span<double>(q));
      trunc_s[t] = std::min(trunc_s[t], w.seconds());
    }
  }

  // Full zero-padded batch re-solve per tick (the pre-streaming approach).
  std::vector<double> full_s(nt, 1e300);
  std::vector<double> window(engine.data_dim(), 0.0);
  for (std::size_t t = 0; t < nt; ++t) {
    std::copy(event.d_obs.begin() + static_cast<std::ptrdiff_t>(t * nd),
              event.d_obs.begin() + static_cast<std::ptrdiff_t>((t + 1) * nd),
              window.begin() + static_cast<std::ptrdiff_t>(t * nd));
    const InversionResult inv = twin.infer(window);
    full_s[t] = inv.infer_seconds + inv.predict_seconds;
  }

  TextTable table({"tick", "stream push", "truncated solve", "full re-solve",
                   "push/trunc"});
  for (std::size_t t = 0; t < nt; ++t) {
    if (t % 4 != 3 && t != 0) continue;  // print every 4th tick
    table.row()
        .cell(static_cast<long>(t + 1))
        .cell(format_duration(push_s[t]))
        .cell(format_duration(trunc_s[t]))
        .cell(format_duration(full_s[t]))
        .cell(push_s[t] / trunc_s[t], 3);
  }
  std::printf("%s\n", table.str().c_str());

  const auto quarter_mean = [&](const std::vector<double>& s, bool late) {
    const std::size_t q4 = nt / 4;
    double sum = 0.0;
    for (std::size_t t = 0; t < q4; ++t) sum += s[late ? nt - 1 - t : t];
    return sum / static_cast<double>(q4);
  };
  const double push_early = quarter_mean(push_s, false);
  const double push_late = quarter_mean(push_s, true);
  const double trunc_early = quarter_mean(trunc_s, false);
  const double trunc_late = quarter_mean(trunc_s, true);
  double push_total = 0.0, trunc_total = 0.0, full_total = 0.0;
  for (std::size_t t = 0; t < nt; ++t) {
    push_total += push_s[t];
    trunc_total += trunc_s[t];
    full_total += full_s[t];
  }

  std::printf("growth, last-quarter / first-quarter mean latency (tick index "
              "grows ~%.0fx):\n",
              static_cast<double>(nt - nt / 8) / (0.5 + nt / 8.0));
  std::printf("  stream push     %s -> %s  (%.2fx: no refactorization; "
              "the causal MAP sweep widens with the tick)\n",
              format_duration(push_early).c_str(),
              format_duration(push_late).c_str(), push_late / push_early);
  std::printf("  truncated solve %s -> %s  (%.2fx; dominated by the "
              "constant matrix-free G* lift at seed scale — its O((t Nd)^2) "
              "substitutions take over at paper dims)\n",
              format_duration(trunc_early).c_str(),
              format_duration(trunc_late).c_str(), trunc_late / trunc_early);
  std::printf("\nwhole-event totals: stream %s | truncated re-solves %s "
              "(%.1fx) | full re-solves %s (%.1fx)\n",
              format_duration(push_total).c_str(),
              format_duration(trunc_total).c_str(), trunc_total / push_total,
              format_duration(full_total).c_str(), full_total / push_total);

  // Machine-readable trajectory: per-tick push latency distribution (over
  // all ticks' min-of-replays) plus the re-solve columns for the ratio.
  bu::JsonReport report("streaming");
  report.add("push",
             {{"sensors", static_cast<double>(nd)},
              {"ticks", static_cast<double>(nt)},
              {"parameters", static_cast<double>(engine.parameter_dim())}},
             bu::from_seconds(push_s));
  report.add("truncated_solve",
             {{"sensors", static_cast<double>(nd)},
              {"ticks", static_cast<double>(nt)}},
             bu::from_seconds(trunc_s));
  report.add("full_resolve",
             {{"sensors", static_cast<double>(nd)},
              {"ticks", static_cast<double>(nt)}},
             bu::from_seconds(full_s));
  report.note("whole_event_push_s", push_total);
  report.note("precompute_s", engine.precompute_seconds());
  report.note("push_trace_off_ns", push_off_ns);
  report.note("push_trace_on_ns", push_on_ns);
  report.write();
  return 0;
}
