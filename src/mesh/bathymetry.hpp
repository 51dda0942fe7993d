#pragma once

// Synthetic Cascadia-like topobathymetry: an analytic stand-in for the
// GEBCO grid the paper meshes.
//
// Coordinates: x runs across the margin from the deformation front (trench,
// x = 0, deep) toward the coast (x = Lx, shallow); y runs along strike
// (~1000 km in the real CSZ). depth(x, y) > 0 is the water column thickness.
// The profile reproduces the morphology that matters for the physics:
// an abyssal plain, a continental slope, a shallow shelf, and smooth
// along-strike undulations so no two across-margin sections are identical.

#include <cstddef>

namespace tsunami {

struct BathymetryConfig {
  double length_x = 150e3;      ///< across-margin extent [m]
  double length_y = 250e3;      ///< along-strike extent [m]
  double depth_abyssal = 2800.0;///< water depth at the trench side [m]
  double depth_shelf = 180.0;   ///< water depth on the continental shelf [m]
  double slope_center = 0.55;   ///< slope toe position as a fraction of Lx
  double slope_width = 0.18;    ///< slope width as a fraction of Lx
  double undulation_amp = 120.0;///< along-strike depth undulation [m]
  double undulation_waves = 2.5;///< undulation periods along strike
  double min_depth = 60.0;      ///< floor on the water column [m]
};

/// Smooth synthetic bathymetry; thread-safe, stateless evaluation.
class Bathymetry {
 public:
  explicit Bathymetry(const BathymetryConfig& config = {});

  /// Water depth (positive, meters) at margin coordinates (x, y).
  [[nodiscard]] double depth(double x, double y) const;

  /// Seafloor elevation z = -depth(x, y).
  [[nodiscard]] double floor_z(double x, double y) const { return -depth(x, y); }

  [[nodiscard]] const BathymetryConfig& config() const { return cfg_; }

 private:
  BathymetryConfig cfg_;
};

/// Uniform-depth basin (flat bottom) for analytic verification tests.
[[nodiscard]] BathymetryConfig flat_basin(double depth, double lx, double ly);

}  // namespace tsunami
