// The paper's tables and figures at reduced scale (arXiv:2504.16344), one
// section each: Table I + Fig. 6 (application timers), Table III (per-phase
// compute time), SecIV (misfit Hessian spectrum), Figs. 3-4 (inversion
// quality), SecVII-B (memory per DOF), SecVII-C (speedups) and SecVIII (cold
// vs warm boot). Table III, SecIV and Figs. 3-4 read one twin, one offline
// build and one inversion; the other sections set up their own.
//
// Each section prints its table and shape-check line, and BENCH_paper.json
// records every printed timing as a case named <section>.<quantity> and the
// ratios, errors and coverage the shape checks read as notes, so
// tools/bench/compare.py can diff two runs. Absolute factors scale with
// problem size (ours is ~10^5 smaller than the paper's); the shapes are the
// claim. Exits 1 when a warm-booted twin does not match its cold twin, or a
// cold twin's infer() does not match its own streamed final tick.
//
// Run:  cmake --build build --target bench_paper && ./build/bench/bench_paper

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "core/baseline_cg.hpp"
#include "core/digital_twin.hpp"
#include "fem/pa_kernels.hpp"
#include "linalg/blas.hpp"
#include "linalg/eigen.hpp"
#include "parallel/parallel_for.hpp"
#include "util/memory_tracker.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "wave/adjoint.hpp"

namespace {

using namespace tsunami;
using benchutil::from_seconds;
using benchutil::JsonReport;
using benchutil::Stat;
using Shape = std::vector<std::pair<std::string, double>>;

// --- Table I + Fig. 6 --------------------------------------------------------
// The Cascadia application timers (Initialization, Setup, Adjoint p2o, I/O),
// with the short measured solve projected to the paper's O(20,000)-timestep
// production runs: initialization, setup and I/O are negligible against the
// wave solver.
void table_i(JsonReport& report) {
  TimerRegistry timers;

  // Initialization: device/runtime bring-up (here: pool warm-up).
  Stopwatch init_watch;
  (void)parallel_reduce_sum(
      1000, [](std::size_t i) { return static_cast<double>(i); });
  timers.add("Initialization", init_watch.seconds());

  // Setup: mesh, partial assembly, parameter/observation operators.
  Stopwatch setup_watch;
  const Bathymetry bathy;  // synthetic Cascadia
  const HexMesh mesh(bathy, 10, 14, 3);
  AcousticGravityModel model(mesh, 2);
  const ObservationOperator sensors = ObservationOperator::seafloor_sensors(
      model, sensor_grid(6, 10e3, 90e3, 20e3, 230e3));
  timers.add("Setup", setup_watch.seconds());

  // Adjoint p2o: one adjoint propagation per sensor, measured over the real
  // interval count, then projected like the paper's Fig. 6.
  TimeGrid grid;
  grid.num_intervals = 8;
  grid.substeps = 25;
  grid.dt = model.cfl_timestep(0.35);
  const std::size_t measured_steps = grid.num_intervals * grid.substeps;
  std::vector<Matrix> rows;
  for (std::size_t s = 0; s < sensors.num_outputs(); ++s)
    rows.push_back(adjoint_p2o_rows(model, sensors, s, grid, &timers));

  // I/O: write the p2o column vectors to disk (Table I's I/O row).
  Stopwatch io_watch;
  std::filesystem::create_directories("artifacts");
  {
    std::ofstream f("artifacts/p2o_columns.bin", std::ios::binary);
    for (const auto& r : rows)
      f.write(reinterpret_cast<const char*>(r.data()),
              static_cast<std::streamsize>(r.size() * sizeof(double)));
  }
  timers.add("I/O", io_watch.seconds());
  std::filesystem::remove("artifacts/p2o_columns.bin");

  const double project = 20000.0 / static_cast<double>(measured_steps);
  std::printf("=== Table I timers (measured: %zu sensors x %zu timesteps) "
              "===\n\n",
              sensors.num_outputs(), measured_steps);
  TextTable table({"Timer", "measured", "projected (20k steps)",
                   "% of projected app"});
  const double proj_solver = timers.total("Adjoint p2o") * project;
  const double proj_io = timers.total("I/O") * project;
  const double proj_total = timers.total("Initialization") +
                            timers.total("Setup") + proj_solver + proj_io;
  const Shape shape = {{"sensors", static_cast<double>(sensors.num_outputs())},
                       {"timesteps", static_cast<double>(measured_steps)}};
  auto emit = [&](const char* name, const char* key, double projected) {
    const double measured = timers.total(name);
    table.row().cell(name).cell(format_duration(measured))
        .cell(format_duration(projected))
        .cell(100.0 * projected / proj_total, 2);
    report.add(std::string("table_i.") + key, shape, from_seconds({measured}));
  };
  emit("Initialization", "initialization", timers.total("Initialization"));
  emit("Setup", "setup", timers.total("Setup"));
  emit("Adjoint p2o", "adjoint_p2o", proj_solver);
  emit("I/O", "io", proj_io);
  report.add("table_i.adjoint_p2o_projected", shape,
             from_seconds({proj_solver}));
  report.add("table_i.io_projected", shape, from_seconds({proj_io}));
  std::printf("%s\n", table.str().c_str());

  const double solver_share = 100.0 * proj_solver / proj_total;
  std::printf("Shape check (paper Fig. 6): the adjoint wave solver "
              "dominates (>95%% projected); initialization, setup and I/O "
              "are negligible-to-minor.\n");
  std::printf("solver share here: %.1f%%\n\n", solver_share);
  report.note("table_i.solver_share_pct", solver_share);
}

// --- Table III ---------------------------------------------------------------
// Compute time per phase in the paper's "count x unit-time ~ total" format.
// Phase 1 (PDE solves) dominates the offline cost; Phases 2-3 are dense
// linear algebra (structured products, K's Cholesky and solve); Phase 4 is
// milliseconds (paper: < 0.2 s at the 10^9-parameter scale).
void table_iii(const DigitalTwin& twin, const InversionResult& result,
               JsonReport& report) {
  const std::size_t nd = twin.config().num_sensors;
  const std::size_t nq = twin.config().num_gauges;
  const std::size_t nt = twin.config().num_intervals;
  std::printf("=== Table III: per-phase compute time ===\n");
  std::printf("parameters: %zu | observations: %zu | QoI: %zu\n\n",
              twin.parameter_dim(), twin.data_dim(), nq * nt);

  const TimerRegistry& t = twin.timers();
  TextTable table({"Phase", "Task", "count x unit", "compute time"});
  auto row = [&](const char* phase, const char* task, const char* key,
                 std::size_t count, double total) {
    table.row().cell(phase).cell(task)
        .cell(std::to_string(count) + " x " +
              format_duration(total / static_cast<double>(count)))
        .cell(format_duration(total));
    report.add(std::string("table_iii.") + key,
               {{"count", static_cast<double>(count)}}, from_seconds({total}));
  };
  auto event_row = [&](const char* task, const char* key, double seconds) {
    table.row().cell("4").cell(task).cell("1 event").cell(
        format_duration(seconds));
    report.add(std::string("table_iii.") + key, {}, from_seconds({seconds}));
  };
  const double t_f = t.total("phase1: form F");
  const double t_fq = t.total("phase1: form Fq");
  const double t_k = t.total("form K"), t_chol = t.total("factorize K");
  const double t_cov = t.total("compute Gamma_post(q)");
  const double t_r = t.total("compute R");
  // Phase 1's adjoint solves run concurrently on the pool, so the unit of
  // its two rows is the loop's wall time divided by the solve count, not the
  // time of one solve.
  row("1", "form F : m -> d (adjoint PDE solves)", "form_f", nd, t_f);
  row("1", "form Fq : m -> q (adjoint PDE solves)", "form_fq", nq, t_fq);
  row("2", "form K := Gn + F Gpr F^T (structured product)", "form_k", 1, t_k);
  row("2", "factorize K (Cholesky)", "factorize_k", 1, t_chol);
  row("3", "compute Gamma_post(q)", "gamma_post_q", nq * nt, t_cov);
  row("3", "compute R : d -> q (Q = R^T L^-1)", "compute_r", 1, t_r);
  event_row("infer parameters m_map (L^-T z, G* lift)", "infer_m_map_from_z",
            result.infer_seconds);
  event_row("predict QoI q_map (z = L^-1 d, R^T z)", "predict_q_map_from_d",
            result.predict_seconds);
  std::printf("%s\n", table.str().c_str());
  std::printf("Phase 4 runs the streaming kernels over the whole window: "
              "predict times the forward solve z = L^-1 d and one sweep of "
              "R; infer times the backward solve L^-T z and the G* lift. "
              "The forecast is bitwise the streamed final tick.\n");

  const double offline = t_f + t_fq + t_k + t_chol + t_cov + t_r;
  const double online = result.infer_seconds + result.predict_seconds;
  report.add("table_iii.offline_total", {}, from_seconds({offline}));
  report.add("table_iii.online_total", {}, from_seconds({online}));
  report.note("table_iii.offline_online_ratio", offline / online);
  std::printf("offline total: %s | online total: %s | ratio %.0fx\n",
              format_duration(offline).c_str(),
              format_duration(online).c_str(), offline / online);
  std::printf("shape check (paper): Phase 1 dominates offline; online "
              "inference is real-time (paper: <0.2 s; here %s at reduced "
              "scale).\n\n",
              format_duration(online).c_str());
}

// --- SecIV -------------------------------------------------------------------
// Why low-rank SoA methods fail here: the prior-preconditioned data-space
// misfit Gn^{-1/2} F Gp F^T Gn^{-1/2} (the nonzero spectrum of the
// prior-preconditioned misfit Hessian) has effective rank close to the DATA
// dimension: wave propagation preserves information.
void sec_iv(const DigitalTwin& twin, const NoiseModel& noise,
            JsonReport& report) {
  // K = Gn + F Gp F^T; the misfit part is (K - sigma^2 I) / sigma^2 in the
  // prior-preconditioned sense. Its eigenvalues above 1 drive CG iteration
  // counts.
  const Matrix& k = twin.hessian().matrix();
  const double var = noise.variance();
  const std::size_t n = k.rows();
  Matrix misfit(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      misfit(i, j) = (k(i, j) - (i == j ? var : 0.0)) / var;

  const auto eigs = symmetric_eigenvalues(misfit);
  std::size_t above_one = 0;
  for (double e : eigs)
    if (e >= 1.0) ++above_one;
  const double rank_fraction =
      static_cast<double>(above_one) / static_cast<double>(n);
  const std::size_t rank_1e6 = effective_rank(eigs, 1e-6);

  std::printf("=== Spectrum of the prior-preconditioned misfit Hessian ===\n");
  std::printf("data dimension: %zu | parameter dimension: %zu\n\n", n,
              twin.parameter_dim());
  TextTable table({"quantity", "value"});
  table.row().cell("lambda_max").cell(eigs.front(), 1);
  table.row().cell("lambda_min").cell(eigs.back(), 3);
  table.row().cell("eigenvalues >= 1 (CG-relevant)").cell(
      static_cast<long>(above_one));
  table.row().cell("effective rank / data dim").cell(rank_fraction, 2);
  table.row().cell("eff. rank (1e-6 lambda_max cutoff)").cell(
      static_cast<long>(rank_1e6));
  std::printf("%s\n", table.str().c_str());
  report.note("sec_iv.lambda_max", eigs.front());
  report.note("sec_iv.lambda_min", eigs.back());
  report.note("sec_iv.eigenvalues_above_one", static_cast<double>(above_one));
  report.note("sec_iv.effective_rank_fraction", rank_fraction);
  report.note("sec_iv.effective_rank_1e-6", static_cast<double>(rank_1e6));

  // Decay profile: the paper's point is that this does NOT collapse after a
  // few modes (contrast with diffusive inverse problems).
  std::printf("spectrum decay (fraction of lambda_max):\n");
  for (double frac : {0.0, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const auto idx = static_cast<std::size_t>(
        frac * static_cast<double>(eigs.size() - 1));
    std::printf("  lambda[%3zu] / lambda[0] = %.3e\n", idx,
                eigs[idx] / eigs.front());
  }
  std::printf("\nshape check (paper SecIV): effective rank ~ data dimension "
              "(here %.0f%%), so conventional CG needs O(data-dim) PDE-solve "
              "pairs per event -- the intractability that motivates the "
              "offline-online decomposition.\n",
              100.0 * rank_fraction);

  // The low-rank SoA method applied anyway: [17, 18] build a rank-k
  // approximation with a randomized eigensolver and keep it if the residual
  // is negligible. For this operator the residual stays O(1) until k ~ data
  // dimension: "low-rank" degenerates to dense.
  std::printf("\n=== Randomized low-rank approximation (the SoA method of "
              "[17,18]) ===\n");
  const LinearOp misfit_op = [&](std::span<const double> x,
                                 std::span<double> y) {
    gemv(misfit, x, y);
  };
  TextTable lowrank({"rank k", "k / data dim", "range residual fraction"});
  for (std::size_t rank : {n / 16, n / 8, n / 4, n / 2, n - 10}) {
    if (rank == 0) continue;
    const auto approx = randomized_eigenvalues(misfit_op, n, rank, 8, 2);
    lowrank.row()
        .cell(static_cast<long>(rank))
        .cell(static_cast<double>(rank) / static_cast<double>(n), 2)
        .cell(approx.residual_fraction, 3);
    report.note("sec_iv.residual_fraction_rank_" + std::to_string(rank),
                approx.residual_fraction);
  }
  std::printf("%s\n", lowrank.str().c_str());
  std::printf("shape check: the residual decays slowly with k (no spectral "
              "gap) -- truncation at k << data dim loses O(1) of the "
              "operator, unlike the diffusive inverse problems where [17,18] "
              "succeed.\n\n");
}

// --- Figs. 3-4 ---------------------------------------------------------------
// End-to-end inversion quality on the synthetic margin-wide rupture: true vs
// inferred seafloor displacement, pointwise posterior uncertainty, and
// gauge-by-gauge wave-height forecasts with 95% credible intervals.
void figs_3_4(const DigitalTwin& twin, const SyntheticEvent& event,
              const InversionResult& result, JsonReport& report) {
  const auto b_true = twin.displacement_field(event.m_true);
  const auto b_map = twin.displacement_field(result.m_map);
  const double rel_err = DigitalTwin::relative_error(b_map, b_true);
  const double corr =
      dot(b_true, b_map) / (nrm2(b_true) * nrm2(b_map) + 1e-30);

  // Pointwise posterior std dev of displacement at probe points (Fig. 3e):
  // sensed region vs unsensed corner.
  const auto& src = twin.model().source_map();
  const std::size_t nx1 = src.grid_nx(), ny1 = src.grid_ny();
  auto displacement_sigma = [&](std::size_t r) {
    // Var(int m dt) with block-diagonal-in-time posterior approx: sum of
    // per-interval variances (cross-time covariance omitted -> upper bound
    // on the diagonal part; the paper plots the full pointwise std dev).
    double var = 0.0;
    const double dt = twin.time_grid().interval();
    for (std::size_t t = 0; t < twin.time_grid().num_intervals; ++t)
      var += twin.posterior().pointwise_variance(r, t) * dt * dt;
    return std::sqrt(var);
  };
  const double sigma_sensed = displacement_sigma(nx1 / 3 + nx1 * (ny1 / 2));
  const double sigma_unsensed =
      displacement_sigma((nx1 - 1) + nx1 * (ny1 - 1));

  std::printf("=== Fig. 3: inferred seafloor displacement ===\n");
  TextTable fig3({"metric", "value"});
  fig3.row().cell("relative L2 error").cell(rel_err, 3);
  fig3.row().cell("pattern correlation").cell(corr, 3);
  fig3.row().cell("peak true uplift [m]").cell(amax(b_true), 2);
  fig3.row().cell("peak inferred uplift [m]").cell(amax(b_map), 2);
  fig3.row().cell("posterior sigma, sensed region [m]").cell(sigma_sensed, 3);
  fig3.row().cell("posterior sigma, unsensed corner [m]").cell(
      sigma_unsensed, 3);
  std::printf("%s\n", fig3.str().c_str());
  report.note("figs_3_4.relative_l2_error", rel_err);
  report.note("figs_3_4.pattern_correlation", corr);
  report.note("figs_3_4.sigma_sensed_m", sigma_sensed);
  report.note("figs_3_4.sigma_unsensed_m", sigma_unsensed);

  const auto& fc = result.forecast;
  std::printf("=== Fig. 4: wave-height forecasts at %zu gauges ===\n",
              fc.num_gauges);
  TextTable fig4({"gauge", "RMSE [m]", "peak true [m]", "peak pred [m]",
                  "CI coverage"});
  int inside_all = 0, total_all = 0;
  for (std::size_t g = 0; g < fc.num_gauges; ++g) {
    double se = 0.0, peak_t = 0.0, peak_p = 0.0;
    int inside = 0, total = 0;
    for (std::size_t t = 0; t < fc.num_times; ++t) {
      const double truth = event.q_true[t * fc.num_gauges + g];
      const double pred = fc.at(fc.mean, t, g);
      se += (truth - pred) * (truth - pred);
      peak_t = std::max(peak_t, std::abs(truth));
      peak_p = std::max(peak_p, std::abs(pred));
      if (fc.at(fc.stddev, t, g) > 1e-14) {
        ++total;
        if (truth >= fc.at(fc.lower95, t, g) &&
            truth <= fc.at(fc.upper95, t, g))
          ++inside;
      }
    }
    const double rmse = std::sqrt(se / static_cast<double>(fc.num_times));
    fig4.row().cell(static_cast<long>(g)).cell(rmse, 4).cell(peak_t, 3)
        .cell(peak_p, 3)
        .cell(total ? std::to_string(inside) + "/" + std::to_string(total)
                    : std::string("-"));
    report.note("figs_3_4.gauge" + std::to_string(g) + "_rmse_m", rmse);
    inside_all += inside;
    total_all += total;
  }
  std::printf("%s\n", fig4.str().c_str());
  if (total_all > 0)
    report.note("figs_3_4.ci_coverage",
                static_cast<double>(inside_all) / total_all);

  std::printf("shape checks (paper Figs. 3-4): inferred displacement "
              "reproduces the true uplift pattern (correlation %.2f); "
              "posterior uncertainty is smaller inside the sensed region "
              "than outside (%.3f < %.3f); forecasts track the true series "
              "with calibrated CIs.\n\n",
              corr, sigma_sensed, sigma_unsensed);
}

// --- SecVII-B ----------------------------------------------------------------
// Storage per DOF across operator representations, and the paper's memory
// optimizations: partial assembly stores O(1) per DOF, matrix-free only
// element corners, and the optimizations (recomputed Jacobian determinants,
// reused RK4 temporaries, sparse RHS) cut the footprint 5.33x, enabling
// 1.28 B DOF per MI300A. We account the same categories explicitly.
void sec_vii_b(JsonReport& report) {
  const Bathymetry bathy;  // synthetic Cascadia
  const HexMesh mesh(bathy, 12, 16, 3);
  const std::size_t order = 4;  // the paper's discretization order
  const BasisTables tables(order);
  const H1Space h1(mesh, tables);
  const L2Space l2(mesh, tables);
  const auto geom = build_pa_geometry(mesh, tables);

  const std::size_t ndof = h1.num_dofs() + l2.num_dofs();
  const std::size_t nelem = mesh.num_elements();
  const std::size_t q3 = geom.q3;
  const std::size_t n1 = tables.n1;
  const double dofs = static_cast<double>(ndof);

  std::printf("=== SecVII-B: operator storage per DOF (order %zu, %zu "
              "elements, %zu state DOF) ===\n\n",
              order, nelem, ndof);

  // Full assembly: a global sparse matrix. Each pressure row couples with
  // ~(2p+1)^3 pressure neighbours and each velocity row with n1^3 pressure
  // DOFs through the mixed blocks (CSR: 12 B/nonzero).
  const double p_stencil = static_cast<double>((2 * order + 1) *
                                               (2 * order + 1) *
                                               (2 * order + 1));
  const double full_bytes =
      12.0 * (static_cast<double>(h1.num_dofs()) * p_stencil +
              2.0 * static_cast<double>(l2.num_dofs()) *
                  static_cast<double>(n1 * n1 * n1));
  // Element assembly: dense element matrices (both mixed blocks).
  const double elem_bytes =
      8.0 * static_cast<double>(nelem) * 2.0 *
      static_cast<double>(3 * q3 * n1 * n1 * n1);
  // Partial assembly: the stored geometry factors.
  const double pa_bytes = static_cast<double>(geom.pa_bytes());
  // Matrix-free: corner coordinates only.
  const double mf_bytes = static_cast<double>(geom.mf_bytes());

  TextTable table({"representation", "operator bytes", "bytes/DOF",
                   "vs Full assembly"});
  auto emit = [&](const char* name, const char* key, double bytes) {
    table.row().cell(name).cell(format_bytes(bytes)).cell(bytes / dofs, 1)
        .cell(full_bytes / bytes, 1);
    report.note(std::string("sec_vii_b.") + key + "_bytes_per_dof",
                bytes / dofs);
  };
  emit("Full assembly (CSR)", "full", full_bytes);
  emit("Element assembly", "element", elem_bytes);
  emit("Partial assembly (PA)", "pa", pa_bytes);
  emit("Matrix-free (MF)", "mf", mf_bytes);
  std::printf("%s\n", table.str().c_str());

  // The optimization ladder of SecVII-B, accounted per category.
  std::printf("=== solver footprint: naive vs optimized (per the paper's "
              "optimization list) ===\n\n");
  const double state = 8.0 * dofs;
  MemoryTracker naive, optimized;

  // Naive: PA factors + stored detJ + separate permutation buffers + full
  // RHS vectors + 5 RK4 temporaries + host mirror of the state.
  naive.add("geometry factors", static_cast<std::size_t>(pa_bytes));
  naive.add("stored detJ", nelem * q3 * 8);
  naive.add("permutation buffers", static_cast<std::size_t>(2 * state));
  naive.add("full RHS vectors", static_cast<std::size_t>(2 * state));
  naive.add("RK4 temporaries", static_cast<std::size_t>(5 * state));
  naive.add("host mirror", static_cast<std::size_t>(state));
  naive.add("state", static_cast<std::size_t>(state));

  // Optimized: recompute detJ, fuse permutations into kernels, sparse RHS
  // (source lives on the seafloor plane only), reuse RK4 temporaries for
  // operator scratch, free the host mirror after setup.
  optimized.add("geometry factors", static_cast<std::size_t>(pa_bytes));
  const double bottom_frac =
      static_cast<double>(h1.num_bottom_nodes()) / dofs;
  optimized.add("sparse RHS", static_cast<std::size_t>(state * bottom_frac));
  optimized.add("RK4 temporaries (reused)",
                static_cast<std::size_t>(5 * state));
  optimized.add("state", static_cast<std::size_t>(state));

  TextTable ladder({"configuration", "total", "bytes/DOF"});
  auto ladder_row = [&](const char* name, const MemoryTracker& tracker) {
    const double bytes = static_cast<double>(tracker.total_bytes());
    ladder.row().cell(name).cell(format_bytes(bytes)).cell(bytes / dofs, 1);
    report.note(std::string("sec_vii_b.") + name + "_bytes_per_dof",
                bytes / dofs);
  };
  ladder_row("naive", naive);
  ladder_row("optimized", optimized);
  std::printf("%s\n", ladder.str().c_str());
  const double reduction = static_cast<double>(naive.total_bytes()) /
                           static_cast<double>(optimized.total_bytes());
  report.note("sec_vii_b.footprint_reduction", reduction);
  std::printf("footprint reduction: %.2fx (paper: 5.33x with additional "
              "host-side savings on the MI300A's unified memory)\n\n",
              reduction);
  std::printf("shape checks: PA is orders of magnitude below full/element "
              "assembly and O(1) per DOF; MF is smaller still (its cost is "
              "flops, Fig. 7); the optimization ladder recovers a multi-x "
              "reduction like the paper's.\n\n");
}

// --- SecVII-C ----------------------------------------------------------------
// The three speedup claims on one problem: the FFT Hessian matvec vs the
// forward+adjoint PDE pair (paper: 260,000x), the online Phase 4 inversion
// vs the SoA prior-preconditioned CG with PDE solves per iteration (paper:
// 10^10x), and Nd+Nq offline adjoint solves, once, vs 2 per CG iteration
// per event (paper: ~810x fewer).
void sec_vii_c(JsonReport& report) {
  TwinConfig config = TwinConfig::tiny();
  // Keep the data dimension small: the prior-preconditioned Hessian is
  // I + rank-(Nd Nt), so baseline CG needs ~Nd*Nt iterations (2 PDE solves
  // each) — the paper's intractability, which we must afford once here.
  config.num_sensors = 4;
  config.num_intervals = 8;
  DigitalTwin twin(config);
  const RuptureConfig rcfg = margin_wide_scenario(
      config.bathymetry.length_x, config.bathymetry.length_y, 8.5, 3);
  Rng rng(1);
  const SyntheticEvent event = twin.synthesize(RuptureScenario(rcfg), rng);
  twin.run_offline(event.noise);

  const auto& grid = twin.time_grid();
  const auto& f = *twin.p2o().toeplitz;
  std::printf("=== SecVII-C speedups at reduced scale ===\n");
  std::printf("parameters %zu | data %zu | timesteps/solve %zu\n\n",
              twin.parameter_dim(), twin.data_dim(),
              grid.num_intervals * grid.substeps);
  const Shape shape = {
      {"parameters", static_cast<double>(twin.parameter_dim())},
      {"data", static_cast<double>(twin.data_dim())}};

  // 1. Hessian matvec: FFT vs PDE pair.
  Rng rng2(2);
  const auto v = rng2.normal_vector(twin.parameter_dim());
  std::vector<double> fv(twin.data_dim()), ftfv(twin.parameter_dim());
  Stopwatch pde_watch;
  forward_p2o_apply(twin.model(), twin.sensors(), grid, v,
                    std::span<double>(fv));
  adjoint_p2o_transpose_apply(twin.model(), twin.sensors(), grid, fv,
                              std::span<double>(ftfv));
  const double t_pde_pair = pde_watch.seconds();
  const benchutil::Stat fft_pair = benchutil::time_reps(20, [&] {
    f.apply(v, std::span<double>(fv));
    f.apply_transpose(fv, std::span<double>(ftfv));
  });
  const double t_fft_pair = fft_pair.median_ns * 1e-9;
  report.add("sec_vii_c.matvec_pde_pair", shape, from_seconds({t_pde_pair}));
  report.add("sec_vii_c.matvec_fft_pair", shape, fft_pair);

  // 2. Online inversion vs baseline CG.
  const InversionResult online = twin.infer(event.d_obs);
  const double t_online = online.infer_seconds + online.predict_seconds;
  BaselineOptions opts;
  opts.max_iterations = 80;
  opts.relative_tolerance = 1e-8;
  const BaselineResult baseline =
      baseline_cg_solve(twin.model(), twin.sensors(), grid, twin.prior(),
                        event.noise, event.d_obs, opts);
  report.add("sec_vii_c.solve_event_baseline_cg", shape,
             from_seconds({baseline.seconds}));
  report.add("sec_vii_c.solve_event_online", shape, from_seconds({t_online}));
  // Agreement check: both must find the same MAP point.
  const double map_err =
      DigitalTwin::relative_error(baseline.m_map, online.m_map);

  // 3. PDE-solve accounting: once offline vs per event.
  const std::size_t phase1_solves = config.num_sensors + config.num_gauges;
  const double solve_ratio = static_cast<double>(baseline.pde_solves) /
                             static_cast<double>(phase1_solves);

  TextTable table({"Comparison", "conventional", "this framework",
                   "speedup", "paper"});
  table.row().cell("Hessian matvec (pair)").cell(format_duration(t_pde_pair))
      .cell(format_duration(t_fft_pair)).cell(t_pde_pair / t_fft_pair, 0)
      .cell("260,000x");
  table.row().cell("solve one event (MAP+QoI)")
      .cell(format_duration(baseline.seconds)).cell(format_duration(t_online))
      .cell(baseline.seconds / t_online, 0).cell("10^10x");
  table.row().cell("PDE solves (per event vs once)")
      .cell(std::to_string(baseline.pde_solves))
      .cell(std::to_string(phase1_solves) + " (offline, once)")
      .cell(solve_ratio, 1).cell("~810x");
  std::printf("%s\n", table.str().c_str());
  report.note("sec_vii_c.matvec_speedup", t_pde_pair / t_fft_pair);
  report.note("sec_vii_c.solve_event_speedup", baseline.seconds / t_online);
  report.note("sec_vii_c.pde_solve_ratio", solve_ratio);
  report.note("sec_vii_c.baseline_cg_iterations",
              static_cast<double>(baseline.cg_iterations));
  report.note("sec_vii_c.baseline_converged", baseline.converged ? 1.0 : 0.0);
  report.note("sec_vii_c.map_relative_error", map_err);

  std::printf("baseline CG: %zu iterations, converged=%d, "
              "MAP agreement with the exact online solve: rel. err %.2e\n",
              baseline.cg_iterations, baseline.converged ? 1 : 0, map_err);
  std::printf("\nshape check: both speedup rows must be >> 1 and grow with "
              "problem size (the paper's factors arise at 10^9 parameters "
              "on GPUs).\n\n");
}

// --- SecVIII -----------------------------------------------------------------
// Cold boot (constructor + Phases 1-3) vs warm boot (DigitalTwin::load_offline:
// one pass over the bundle, its sections adopted as they are read, no PDE
// solves, no factorization, no wave model, and no Toeplitz spectra, which the
// first MAP read builds). The cold side scales with mesh x sensors x window,
// the warm side only with the artifact sizes.

/// Minor page faults this process has taken so far.
long minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

/// Empty when the twins agree bit for bit, else what differs. The warm twin
/// must reproduce the cold twin on infer() of one data vector and on one
/// streaming replay of it (the forecast after every push and the final MAP
/// snapshot), and the cold twin's infer() must be its own streamed final
/// tick (forecast mean and stddev, and map_snapshot()).
std::string twins_differ(const DigitalTwin& cold, const DigitalTwin& warm) {
  if (!warm.online_ready() || warm.data_dim() != cold.data_dim())
    return "warm twin not online";
  Rng rng(8);
  std::vector<double> d(cold.data_dim());
  for (double& v : d) v = 1e-2 * rng.normal();
  const InversionResult ci = cold.infer(d);
  const InversionResult wi = warm.infer(d);
  if (ci.m_map != wi.m_map || ci.forecast.mean != wi.forecast.mean ||
      ci.forecast.stddev != wi.forecast.stddev)
    return "warm infer() differs from cold infer()";
  const StreamingEngine ce = cold.make_streaming();
  const StreamingEngine we = warm.make_streaming();
  StreamingAssimilator ca = ce.start();
  StreamingAssimilator wa = we.start();
  const std::size_t nd = ce.block_size();
  for (std::size_t t = 0; t < ce.num_ticks(); ++t) {
    const std::span<const double> block =
        std::span<const double>(d).subspan(t * nd, nd);
    ca.push(t, block);
    wa.push(t, block);
    const Forecast cf = ca.forecast();
    const Forecast wf = wa.forecast();
    if (cf.mean != wf.mean || cf.stddev != wf.stddev)
      return "warm stream differs from cold stream";
  }
  const std::vector<double> cold_map = ca.map_snapshot();
  if (cold_map != wa.map_snapshot())
    return "warm final MAP differs from cold final MAP";
  const Forecast final_tick = ca.forecast();
  if (ci.forecast.mean != final_tick.mean ||
      ci.forecast.stddev != final_tick.stddev || ci.m_map != cold_map)
    return "cold infer() differs from its streamed final tick";
  return {};
}

/// Warm boots timed per case.
constexpr int kWarmBoots = 9;

/// Returns false when a warm twin is not equivalent to its cold twin.
bool sec_viii(JsonReport& report) {
  struct Case {
    const char* name;
    const char* key;
    TwinConfig config;
  };
  TwinConfig wide = TwinConfig::tiny();
  wide.num_sensors = 10;
  wide.num_intervals = 24;
  wide.observation_dt = 3.0;
  // A mesh-heavier case: doubles the PDE cost per adjoint solve (the cold
  // side) while the artifact sizes (the warm side) stay observation-bound —
  // the ratio grows with exactly the knobs the paper turns up.
  TwinConfig deep = TwinConfig::tiny();
  deep.mesh_nx = 9;
  deep.mesh_ny = 12;
  deep.mesh_nz = 3;
  deep.num_sensors = 8;
  deep.num_intervals = 16;
  const Case cases[] = {{"tiny (tests)", "tiny", TwinConfig::tiny()},
                        {"tiny, 10 sensors x 24 ticks", "wide", wide},
                        {"9x12x3 mesh, 8 sensors x 16 ticks", "deep", deep}};
  const std::string path =
      (std::filesystem::temp_directory_path() / "tsunami_warmstart.bundle")
          .string();

  std::printf("=== Cold boot vs warm boot (offline/online split) ===\n\n");
  TextTable table({"config", "data dim", "cold boot", "save", "bundle MB",
                   "warm boot", "cold/warm"});
  for (const Case& c : cases) {
    // Cold: constructor + all offline phases. The noise level only scales
    // K's diagonal; a fixed floor keeps forward-model synthesis out of the
    // timed region.
    Stopwatch cold_watch;
    DigitalTwin cold(c.config);
    cold.run_offline(NoiseModel{1e-2});
    const double cold_seconds = cold_watch.seconds();

    Stopwatch save_watch;
    cold.save_offline(path);
    const double save_seconds = save_watch.seconds();
    const double bundle_mb =
        static_cast<double>(std::filesystem::file_size(path)) / 1e6;

    // Warm boots, each freed before the next is timed, so the case has a
    // spread to gate on. The first boot's minor page faults are noted: a
    // boot whose sections land on fresh pages pays one fault per page, which
    // can cost more than the rest of the boot.
    std::vector<double> warm_samples;
    long warm_faults = 0;
    for (int i = 0; i < kWarmBoots; ++i) {
      const long faults_before = minor_faults();
      Stopwatch warm_watch;
      const DigitalTwin boot = DigitalTwin::load_offline(path);
      warm_samples.push_back(warm_watch.seconds());
      if (i == 0) warm_faults = minor_faults() - faults_before;
    }
    const Stat warm_stat = from_seconds(warm_samples);
    const double warm_seconds = warm_stat.median_ns * 1e-9;
    const DigitalTwin warm = DigitalTwin::load_offline(path);

    // Keep the benchmark honest (outside the timed regions): the warm twin
    // must reproduce the cold twin's inference and streaming bits, and the
    // batch answer must be the streamed final tick.
    if (const std::string what = twins_differ(cold, warm); !what.empty()) {
      std::printf("FAILED: %s (%s)\n", what.c_str(), c.name);
      std::filesystem::remove(path);
      return false;
    }
    table.row().cell(c.name).cell(static_cast<double>(cold.data_dim()), 0)
        .cell(format_duration(cold_seconds))
        .cell(format_duration(save_seconds)).cell(bundle_mb, 3)
        .cell(format_duration(warm_seconds))
        .cell(cold_seconds / warm_seconds, 1);
    const std::string key = std::string("sec_viii.") + c.key;
    const Shape shape = {{"data_dim", static_cast<double>(cold.data_dim())}};
    report.add(key + "_cold_boot", shape, from_seconds({cold_seconds}));
    report.add(key + "_save", shape, from_seconds({save_seconds}));
    report.add(key + "_warm_boot", shape, warm_stat);
    report.note(key + "_warm_boot_minor_faults",
                static_cast<double>(warm_faults));
    report.note(key + "_bundle_mb", bundle_mb);
    report.note(key + "_cold_warm_ratio", cold_seconds / warm_seconds);
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "warm boot = one pass over the bundle, each section adopted as it is "
      "read (median of %d boots): no PDE solves, no factorization, no wave "
      "model, and no Toeplitz spectra, which the first MAP read builds — the "
      "warning center never needs the HPC system (SecVIII). Each warm twin "
      "matched its cold twin bit for bit (infer, a streaming replay and its "
      "final MAP), and each cold twin's infer() matched its own streamed "
      "final tick bit for bit (forecast mean and stddev, and the MAP).\n",
      kWarmBoots);
  std::filesystem::remove(path);
  return true;
}

}  // namespace

int main() {
  JsonReport report("paper");
  table_i(report);

  // Table III, SecIV and Figs. 3-4: 12 sensors x 14 intervals, 5 gauges,
  // a Mw 8.7 margin-wide rupture.
  TwinConfig config = TwinConfig::tiny();
  config.num_sensors = 12;
  config.num_gauges = 5;
  config.num_intervals = 14;
  DigitalTwin twin(config);
  const RuptureConfig rcfg = margin_wide_scenario(
      config.bathymetry.length_x, config.bathymetry.length_y, 8.7, 11);
  Rng rng(4);
  const SyntheticEvent event = twin.synthesize(RuptureScenario(rcfg), rng);
  twin.run_offline(event.noise);
  // The first MAP read builds F's Toeplitz spectra, once per twin; Table
  // III times the online solve after that, and the first read is a note.
  Stopwatch first_infer_watch;
  (void)twin.infer(event.d_obs);
  report.note("table_iii.first_infer_s", first_infer_watch.seconds());
  const InversionResult result = twin.infer(event.d_obs);
  table_iii(twin, result, report);
  sec_iv(twin, event.noise, report);
  figs_3_4(twin, event, result, report);

  sec_vii_b(report);
  sec_vii_c(report);
  return sec_viii(report) ? 0 : 1;
}
