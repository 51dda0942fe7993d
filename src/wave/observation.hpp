#pragma once

// Observation operators: seafloor pressure sensors (the data d) and sea
// surface wave-height QoI gauges (the forecasts q).
//
// A sensor observes  d_j = p(x_j, t)  with x_j on the seafloor; a QoI gauge
// observes eta(x_j, t) = p(x_j, t) / (rho g) with x_j on the sea surface
// (the free-surface condition p = rho g eta of Eq. (1)). Both are sparse
// point-evaluation rows over the pressure space; their transposes place
// adjoint sources, which is how Phase 1 builds the p2o/p2q maps with one
// adjoint solve per row.

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "wave/acoustic_gravity.hpp"

namespace tsunami {

/// A set of point observation functionals over the pressure field.
class ObservationOperator {
 public:
  /// Seafloor pressure sensors at footprint positions (x, y).
  static ObservationOperator seafloor_sensors(
      const AcousticGravityModel& model,
      const std::vector<std::array<double, 2>>& positions);

  /// Sea-surface wave-height gauges at footprint positions (x, y); rows are
  /// scaled by 1/(rho g) so the observable is eta in meters.
  static ObservationOperator surface_gauges(
      const AcousticGravityModel& model,
      const std::vector<std::array<double, 2>>& positions);

  [[nodiscard]] std::size_t num_outputs() const { return rows_.size(); }

  /// d = C y (reads only the pressure part of the state).
  void apply(std::span<const double> state, std::span<double> d) const;

  /// state += C^T coeffs (writes only the pressure part); used to seed
  /// adjoint solves. `state` is NOT zeroed.
  void apply_transpose_add(std::span<const double> coeffs,
                           std::span<double> state) const;

  [[nodiscard]] const std::vector<std::array<double, 2>>& positions() const {
    return positions_;
  }

 private:
  ObservationOperator(const AcousticGravityModel& model,
                      std::vector<PointEval> rows,
                      std::vector<std::array<double, 2>> positions);

  const AcousticGravityModel& model_;
  std::vector<PointEval> rows_;
  std::vector<std::array<double, 2>> positions_;
};

/// Uniformly spread `n` sensor positions over the rectangle
/// [x0, x1] x [y0, y1] on a near-square grid (hypothesized offshore array,
/// like the paper's 600-sensor layout).
[[nodiscard]] std::vector<std::array<double, 2>> sensor_grid(
    std::size_t n, double x0, double x1, double y0, double y1);

}  // namespace tsunami
