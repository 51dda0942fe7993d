#pragma once

// Phase 1 of the offline-online decomposition: precompute the block Toeplitz
// p2o map F (one adjoint wave propagation per sensor) and p2q map Fq (one per
// QoI forecast location). Table III rows "form F" / "form Fq".

#include <memory>

#include "toeplitz/block_toeplitz.hpp"
#include "util/timer.hpp"
#include "wave/adjoint.hpp"
#include "wave/observation.hpp"

namespace tsunami {

/// Result of Phase 1 for one observation operator: the Toeplitz map plus its
/// first block column in the time domain, which phases 2-3 form K, V and W
/// from (prior_product) and the artifact bundle ships.
struct P2oMap {
  std::unique_ptr<BlockToeplitz> toeplitz;
  std::vector<double> blocks;  ///< [(k * nrows + s) * Nm + r]
  std::size_t nrows = 0;       ///< Nd (or Nq)
  std::size_t ncols = 0;       ///< Nm
  std::size_t nt = 0;          ///< Nt
};

/// How the outer loop over observation rows (one adjoint solve each) runs.
struct P2oBuildOptions {
  /// Opt-in: run the adjoint solves concurrently (they are embarrassingly
  /// parallel — the paper spreads them across the machine; each solve uses
  /// only local state over a const model and writes disjoint block rows, so
  /// the assembled map is bit-identical to the serial build). Off by
  /// default: the serial loop keeps the per-solve "Adjoint p2o" timer
  /// samples meaningful (Table III measures one propagation at a time), and
  /// the threaded inner kernels already own the cores on small runs.
  bool parallel_rows = false;
};

/// Runs `obs.num_outputs()` adjoint propagations and assembles the block
/// Toeplitz map. Serial mode records per-solve "Setup"/"Adjoint p2o" timer
/// samples; parallel mode records one aggregate "Adjoint p2o (parallel)"
/// wall sample instead (per-thread samples from inside the region would
/// measure thread wall time, not the region's — the registry itself is
/// thread-safe).
[[nodiscard]] P2oMap build_p2o_map(const AcousticGravityModel& model,
                                   const ObservationOperator& obs,
                                   const TimeGrid& grid,
                                   TimerRegistry* timers = nullptr,
                                   const P2oBuildOptions& options = {});

}  // namespace tsunami
