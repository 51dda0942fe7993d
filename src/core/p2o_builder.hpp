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

/// Result of Phase 1 for one observation operator: the Toeplitz map, which
/// owns its first block column in the time domain
/// (`toeplitz->blocks()[(k * nrows + s) * Nm + r]`). Phases 2-3 form K, V
/// and W from those blocks (prior_product) and the artifact bundle ships
/// them; only an apply builds the map's spectra.
struct P2oMap {
  std::unique_ptr<BlockToeplitz> toeplitz;
  std::size_t nrows = 0;       ///< Nd (or Nq)
  std::size_t ncols = 0;       ///< Nm
  std::size_t nt = 0;          ///< Nt
};

/// Runs `obs.num_outputs()` adjoint propagations, one per observation row,
/// concurrently on the pool, and assembles the block Toeplitz map. Each
/// solve uses only local state over a const model and writes a disjoint row
/// of every block, so the map is bit-identical at any worker count. Each
/// solve records its own "Setup"/"Adjoint p2o" timer samples, so those
/// samples are per-solve wall times that may overlap.
[[nodiscard]] P2oMap build_p2o_map(const AcousticGravityModel& model,
                                   const ObservationOperator& obs,
                                   const TimeGrid& grid,
                                   TimerRegistry* timers = nullptr);

}  // namespace tsunami
