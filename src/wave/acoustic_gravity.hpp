#pragma once

// The discretized acoustic-gravity model (the paper's "Cascadia application
// code"). Assembles the semi-discrete first-order system
//
//   M d/dt [u; p] = -A [u; p] + [0; L m(t)]
//
// with (Eq. (4)):
//   M = diag( rho * (u,tau) ,  K^-1 (p,v) + <(rho g)^-1 p, v>_surface )
//   A = [ 0   B ; -B^T   S_a ],  S_a = <Z^-1 p, v>_lateral,
// where B is the weighted-gradient kernel (MixedOperator), both mass blocks
// are diagonal (spectral-element collocation = the paper's lumped mass), and
// L is the seafloor source map. The generator Lambda = -M^{-1} A and its
// exact transpose drive the forward and adjoint RK4 steppers.

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "fem/basis.hpp"
#include "fem/boundary_ops.hpp"
#include "fem/geometry.hpp"
#include "fem/h1_space.hpp"
#include "fem/l2_space.hpp"
#include "fem/pa_kernels.hpp"
#include "mesh/hex_mesh.hpp"

namespace tsunami {

/// Stable explicit timestep estimate cfl * h_min / (c * p^2) for an order-p
/// discretization of `mesh`. Needs no model: the twin sizes its time grid
/// with it before (or without) building one.
[[nodiscard]] double cfl_timestep(const HexMesh& mesh, std::size_t order,
                                  const PhysicalConstants& constants,
                                  double cfl);

/// Owns the full spatial discretization of the acoustic-gravity system.
class AcousticGravityModel {
 public:
  AcousticGravityModel(const HexMesh& mesh, std::size_t order,
                       const PhysicalConstants& constants = {},
                       KernelVariant variant = KernelVariant::FusedPA);

  // --- sizes and views -----------------------------------------------------
  [[nodiscard]] std::size_t velocity_dim() const { return l2_->num_dofs(); }
  [[nodiscard]] std::size_t pressure_dim() const { return h1_->num_dofs(); }
  [[nodiscard]] std::size_t state_dim() const {
    return velocity_dim() + pressure_dim();
  }
  [[nodiscard]] std::span<const double> velocity_part(
      std::span<const double> state) const {
    return state.subspan(0, velocity_dim());
  }
  [[nodiscard]] std::span<const double> pressure_part(
      std::span<const double> state) const {
    return state.subspan(velocity_dim());
  }
  [[nodiscard]] std::span<double> velocity_part(std::span<double> state) const {
    return state.subspan(0, velocity_dim());
  }
  [[nodiscard]] std::span<double> pressure_part(std::span<double> state) const {
    return state.subspan(velocity_dim());
  }

  // --- operators -----------------------------------------------------------
  /// out = Lambda y = -M^{-1} A y (the forward generator).
  void apply_generator(std::span<const double> y, std::span<double> out) const;

  /// out = Lambda^T y = -A^T M^{-1} y (the exact discrete adjoint generator).
  void apply_generator_transpose(std::span<const double> y,
                                 std::span<double> out) const;

  /// out = A y (for energy/consistency tests).
  void apply_a(std::span<const double> y, std::span<double> out) const;

  /// Discrete energy 1/2 y^T M y.
  [[nodiscard]] double energy(std::span<const double> y) const;

  /// M^{-1} applied to a pressure-space vector (for source terms).
  void pressure_mass_inverse(std::span<const double> in,
                             std::span<double> out) const;

  // --- access --------------------------------------------------------------
  [[nodiscard]] const H1Space& h1() const { return *h1_; }
  [[nodiscard]] const L2Space& l2() const { return *l2_; }
  [[nodiscard]] const MixedOperator& mixed_op() const { return *op_; }
  [[nodiscard]] MixedOperator& mixed_op() { return *op_; }
  [[nodiscard]] const BottomSourceMap& source_map() const { return *source_; }
  [[nodiscard]] const PhysicalConstants& constants() const { return phys_; }
  [[nodiscard]] const HexMesh& mesh() const { return mesh_; }
  [[nodiscard]] const BasisTables& tables() const { return tables_; }
  [[nodiscard]] const PaGeometry& geometry() const { return geom_; }

  /// Stable explicit timestep estimate: the free cfl_timestep at this
  /// model's mesh, order and constants.
  [[nodiscard]] double cfl_timestep(double cfl = 0.5) const {
    return tsunami::cfl_timestep(mesh_, tables_.order, phys_, cfl);
  }

  /// Memory footprint of the operator data (for the SecVII-B memory study).
  [[nodiscard]] std::size_t pa_bytes() const { return geom_.pa_bytes(); }

  /// Toggle absorbing boundaries (closed basin conserves energy -> tests).
  void set_absorbing(bool on) { absorbing_on_ = on; }
  [[nodiscard]] bool absorbing() const { return absorbing_on_; }

 private:
  const HexMesh& mesh_;
  PhysicalConstants phys_;
  BasisTables tables_;
  std::unique_ptr<H1Space> h1_;
  std::unique_ptr<L2Space> l2_;
  PaGeometry geom_;
  std::unique_ptr<MixedOperator> op_;
  std::unique_ptr<BottomSourceMap> source_;

  std::vector<double> mass_u_;        ///< diagonal velocity mass (rho w detJ)
  std::vector<double> mass_p_;        ///< diagonal pressure mass (+ surface)
  std::vector<double> inv_mass_u_;
  std::vector<double> inv_mass_p_;
  std::vector<double> absorbing_diag_;
  bool absorbing_on_ = true;
};

}  // namespace tsunami
