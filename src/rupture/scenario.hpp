#pragma once

// Kinematic megathrust rupture scenarios: a stand-in for the paper's 3-D
// dynamic rupture simulation.
//
// The inversion consumes only the spatiotemporal seafloor normal velocity
// m_true(x, t); this module synthesizes realistic fields with the features
// the paper's Mw 8.7 scenario exhibits (Figs. 1, 3): several elliptical slip
// asperities along strike, a rupture front propagating from a hypocenter at
// a finite rupture speed, smooth rise-time source pulses, and margin-wide
// extent. Moment-magnitude scaling sets the peak uplift amplitude.

#include <array>
#include <cstddef>
#include <vector>

#include "fem/boundary_ops.hpp"
#include "wave/adjoint.hpp"

namespace tsunami {

/// One elliptical uplift asperity.
struct Asperity {
  double x0 = 0.0, y0 = 0.0;   ///< center [m]
  double rx = 1.0, ry = 1.0;   ///< semi-axes [m]
  double peak_uplift = 1.0;    ///< final vertical displacement at center [m]
  double angle = 0.0;          ///< rotation of the ellipse [rad]
};

struct RuptureConfig {
  std::vector<Asperity> asperities;
  double hypocenter_x = 0.0;      ///< rupture nucleation [m]
  double hypocenter_y = 0.0;
  double rupture_speed = 2500.0;  ///< rupture front speed [m/s]
  double rise_time = 15.0;        ///< local source duration [s]
};

/// A margin-wide scenario patterned on the paper's magnitude-8.7 event:
/// asperities strung along strike across the locked zone, nucleation near
/// the center of the margin. `lx`, `ly` are the model footprint extents;
/// `magnitude` scales peak uplift (Mw 8.7 -> ~3 m peak uplift).
[[nodiscard]] RuptureConfig margin_wide_scenario(double lx, double ly,
                                                 double magnitude = 8.7,
                                                 unsigned seed = 2025);

/// Evaluates the scenario on the inverse problem's parameter grid.
class RuptureScenario {
 public:
  explicit RuptureScenario(RuptureConfig config);

  /// Final (t -> inf) uplift [m] at footprint position (x, y).
  [[nodiscard]] double final_uplift(double x, double y) const;

  /// Uplift b(x, y, t) [m] (ramp from 0 to the final uplift after onset).
  [[nodiscard]] double uplift(double x, double y, double t) const;

  /// Uplift velocity db/dt [m/s] at position (x, y) and time t.
  [[nodiscard]] double uplift_velocity(double x, double y, double t) const;

  /// Onset time of rupture at (x, y) (hypocentral distance / speed).
  [[nodiscard]] double onset_time(double x, double y) const;

  /// Sample m_true over a parameter grid and time grid: time-major vector of
  /// Nt blocks of size Nm, where block i holds db/dt at the interval
  /// midpoint (zero-order-hold consistent with the discrete p2o map).
  [[nodiscard]] std::vector<double> sample(const BottomSourceMap& grid,
                                           const TimeGrid& time) const;

  [[nodiscard]] const RuptureConfig& config() const { return cfg_; }

 private:
  RuptureConfig cfg_;
};

}  // namespace tsunami
