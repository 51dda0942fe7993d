#pragma once

// Bathymetry-adapted structured hexahedral mesh of the ocean volume
// (Fig. 1d of the paper: multi-block hexahedral mesh with bathymetry-adapted
// vertical coordinate).
//
// The logical mesh is a (nx x ny x nz) box of hexahedra over the margin
// footprint [0,Lx] x [0,Ly]; the vertical coordinate is terrain-following:
// column (x, y) spans z in [-depth(x,y), 0], so the bottom face of layer 0
// is the seafloor (boundary attribute Bottom), the top face of layer nz-1 is
// the sea surface (Surface), and the four side walls are absorbing (Lateral).
// Elements are trilinear hexes; geometry factors are evaluated per element in
// the FEM layer.

#include <array>
#include <cstddef>
#include <vector>

#include "mesh/bathymetry.hpp"

namespace tsunami {

enum class BoundaryKind { Bottom, Surface, Lateral };

/// Structured hexahedral ocean mesh.
class HexMesh {
 public:
  HexMesh(const Bathymetry& bathymetry, std::size_t nx, std::size_t ny,
          std::size_t nz);

  [[nodiscard]] std::size_t nx() const { return nx_; }
  [[nodiscard]] std::size_t ny() const { return ny_; }
  [[nodiscard]] std::size_t nz() const { return nz_; }
  [[nodiscard]] std::size_t num_elements() const { return nx_ * ny_ * nz_; }
  [[nodiscard]] std::size_t num_vertices() const {
    return (nx_ + 1) * (ny_ + 1) * (nz_ + 1);
  }

  [[nodiscard]] double length_x() const { return lx_; }
  [[nodiscard]] double length_y() const { return ly_; }

  /// Vertex coordinate (3 doubles) for logical vertex (i, j, k),
  /// i in [0, nx], j in [0, ny], k in [0, nz] (k = 0 is the seafloor).
  [[nodiscard]] std::array<double, 3> vertex(std::size_t i, std::size_t j,
                                             std::size_t k) const;

  /// Linear element index of element (ex, ey, ez), x-fastest.
  [[nodiscard]] std::size_t element_index(std::size_t ex, std::size_t ey,
                                          std::size_t ez) const {
    return ex + nx_ * (ey + ny_ * ez);
  }

  /// Element logical coordinates of linear index e.
  [[nodiscard]] std::array<std::size_t, 3> element_coords(std::size_t e) const {
    return {e % nx_, (e / nx_) % ny_, e / (nx_ * ny_)};
  }

  /// The 8 vertex coordinates of element e in lexicographic (x,y,z) corner
  /// order; corner c = (cx, cy, cz) at index cx + 2*cy + 4*cz.
  [[nodiscard]] std::array<std::array<double, 3>, 8> element_vertices(
      std::size_t e) const;

  [[nodiscard]] const Bathymetry& bathymetry() const { return bathy_; }

  /// Shortest element edge over the whole mesh (drives the CFL bound).
  [[nodiscard]] double min_edge_length() const;

  /// Uniform footprint spacing.
  [[nodiscard]] double dx() const { return lx_ / static_cast<double>(nx_); }
  [[nodiscard]] double dy() const { return ly_ / static_cast<double>(ny_); }

 private:
  Bathymetry bathy_;
  std::size_t nx_, ny_, nz_;
  double lx_, ly_;
};

}  // namespace tsunami
