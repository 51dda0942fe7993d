#pragma once

// Partial-assembly element kernels for the mixed acoustic-gravity operator.
//
// The wave operator's off-diagonal blocks (Eq. (4) of the paper) are
//   gradient block   :  (nabla p, tau)      : H1 -> L2^3
//   divergence block : -(u, nabla v)        : L2^3 -> H1
// Both reduce to the weighted evaluation operator B = W E with
//   (E p)_q = J_q^{-T} grad_ref p (x_q),  W = diag(w_q det J_q),
// so gradient = B and divergence-transpose = B^T: applying the pair is the
// dominant cost of each RK4 stage (the "two key kernels" of Fig. 7).
//
// Five implementations mirror the paper's optimization ladder (Fig. 7):
//   InitialPA   - quadrature loops over all basis functions (no sum
//                 factorization); the starting point.
//   SharedPA    - sum-factorized with per-element stack buffers (the CPU
//                 analogue of staging contractions in GPU shared memory).
//   OptimizedPA - sum-factorized with compile-time polynomial order
//                 (fixed-trip-count inner loops; the paper's explicit launch
//                 bounds), used for the scaling runs.
//   FusedPA     - gradient and divergence fused into one element pass,
//                 sharing gathers and geometry loads; peak DOF throughput.
//   FusedMF     - fused and matrix-free: geometry recomputed from element
//                 corners at every point; higher FLOP/s, lower throughput.
// All variants compute identical results to rounding error (tested).

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "fem/basis.hpp"
#include "fem/geometry.hpp"
#include "fem/h1_space.hpp"
#include "fem/l2_space.hpp"

namespace tsunami {

enum class KernelVariant { InitialPA, SharedPA, OptimizedPA, FusedPA, FusedMF };

[[nodiscard]] std::string to_string(KernelVariant v);
[[nodiscard]] const std::vector<KernelVariant>& all_kernel_variants();

/// Analytic cost model of one fused operator application (both blocks),
/// used by bench_kernel_throughput to report FLOP/s and arithmetic intensity
/// like Fig. 7 (FLOP and byte counts in the paper were "manually calculated").
struct KernelCosts {
  double flops = 0.0;  ///< floating-point ops per full apply
  double bytes = 0.0;  ///< bytes moved per full apply (ideal caching)
};

[[nodiscard]] KernelCosts estimate_kernel_costs(KernelVariant v,
                                                std::size_t order,
                                                std::size_t nelem);

/// The mixed-operator kernel engine.
class MixedOperator {
 public:
  MixedOperator(const H1Space& h1, const L2Space& l2, const PaGeometry& geom,
                const BasisTables& tables,
                KernelVariant variant = KernelVariant::FusedPA);

  /// out_u = sign_grad * B p_in        (overwritten)
  /// out_p = sign_div  * B^T u_in      (overwritten)
  /// Boundary terms (absorbing, free surface) are applied by the caller.
  void apply_blocks(std::span<const double> p_in, std::span<const double> u_in,
                    std::span<double> u_out, std::span<double> p_out,
                    double sign_grad, double sign_div) const;

  [[nodiscard]] KernelVariant variant() const { return variant_; }

  [[nodiscard]] const H1Space& h1() const { return h1_; }
  [[nodiscard]] const L2Space& l2() const { return l2_; }

  /// Total state DOFs touched per apply (pressure + velocity), the "DOF" of
  /// the paper's GDOF/s throughput metric.
  [[nodiscard]] std::size_t throughput_dofs() const {
    return h1_.num_dofs() + l2_.num_dofs();
  }

 private:
  const H1Space& h1_;
  const L2Space& l2_;
  const PaGeometry& geom_;
  const BasisTables& tables_;
  KernelVariant variant_;

  // Element lists by 8-coloring (parity of element coords); scatter into the
  // shared pressure vector is race-free within one color.
  std::array<std::vector<std::size_t>, 8> colors_;

  // Elements an element loop needs before it runs on the pool: a fixed
  // flop floor over one element's estimated work at this variant and
  // order. Either way each element writes the same DOFs (disjoint within
  // a color), so the bits do not depend on it.
  std::size_t min_parallel_ = 1;

  // InitialPA reference-element tables: value/grad of each pressure basis
  // function at each volume quadrature point.
  // phi_grad_[ (pt * n1^3 + dof) * 3 + d ].
  std::vector<double> phi_grad_;

  void apply_initial(std::span<const double> p_in, std::span<const double> u_in,
                     std::span<double> u_out, std::span<double> p_out,
                     double sg, double sd) const;
  void apply_shared(std::span<const double> p_in, std::span<const double> u_in,
                    std::span<double> u_out, std::span<double> p_out,
                    double sg, double sd) const;
  template <int P>
  void apply_optimized(std::span<const double> p_in,
                       std::span<const double> u_in, std::span<double> u_out,
                       std::span<double> p_out, double sg, double sd,
                       bool fused, bool matrix_free) const;
};

}  // namespace tsunami
