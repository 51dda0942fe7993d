#include "fem/pa_kernels.hpp"

#include <array>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "parallel/parallel_for.hpp"

namespace tsunami {

namespace {

// Stack-buffer capacity: supports pressure order <= 7 in the dynamic kernels.
constexpr std::size_t kMaxN1 = 8;
constexpr std::size_t kMaxQ = 7;

// Element work (estimate_kernel_costs' flop count) below which an element
// loop runs serially. At order 2 an element is about 1,440 flops and
// 0.45 us of fused work on one thread of a 4-vCPU x86-64 host, and a
// fork-join over the pool costs about 10 us: the bench network's 8
// per-color loops of 12 elements took one apply from 40-46 us at 1 thread
// to 121-127 us at 3. 1e5 flops is a few fork-joins' worth of work.
constexpr double kParallelGrainFlops = 1e5;

}  // namespace

std::string to_string(KernelVariant v) {
  switch (v) {
    case KernelVariant::InitialPA: return "Initial PA";
    case KernelVariant::SharedPA: return "Shared PA";
    case KernelVariant::OptimizedPA: return "Optimized PA";
    case KernelVariant::FusedPA: return "Fused PA";
    case KernelVariant::FusedMF: return "Fused MF";
  }
  return "?";
}

const std::vector<KernelVariant>& all_kernel_variants() {
  static const std::vector<KernelVariant> kAll{
      KernelVariant::InitialPA, KernelVariant::SharedPA,
      KernelVariant::OptimizedPA, KernelVariant::FusedPA,
      KernelVariant::FusedMF};
  return kAll;
}

KernelCosts estimate_kernel_costs(KernelVariant v, std::size_t order,
                                  std::size_t nelem) {
  const double n1 = static_cast<double>(order + 1);
  const double q = static_cast<double>(order);
  const double n13 = n1 * n1 * n1, q3 = q * q * q;
  KernelCosts c;
  const double geometry_flops = 36.0 * q3;  // G r and G^T u at each point
  double tensor_flops;
  if (v == KernelVariant::InitialPA) {
    tensor_flops = 12.0 * q3 * n13;  // all-basis quadrature loops, both blocks
  } else {
    // Sum-factorized contractions, both directions.
    tensor_flops = 2.0 * (4.0 * q * n13 + 6.0 * q * q * n1 * n1 + 6.0 * q3 * n1);
  }
  double mf_flops = 0.0;
  double geom_bytes = 9.0 * 8.0 * q3;  // stored grad factors
  if (v == KernelVariant::FusedMF) {
    mf_flops = 190.0 * q3;  // trilinear J + cofactors + det at each point
    geom_bytes = 24.0 * 8.0;  // corner coordinates only
  }
  const double state_bytes =
      8.0 * (n13 /*gather p*/ + 2.0 * n13 /*accumulate p_out*/ +
             3.0 * q3 /*read u*/ + 3.0 * q3 /*write u_out*/);
  c.flops = static_cast<double>(nelem) * (tensor_flops + geometry_flops + mf_flops);
  c.bytes = static_cast<double>(nelem) * (state_bytes + geom_bytes);
  // Unfused variants sweep elements twice: geometry and gathers reload.
  if (v != KernelVariant::FusedPA && v != KernelVariant::FusedMF)
    c.bytes += static_cast<double>(nelem) * (geom_bytes + 8.0 * n13);
  return c;
}

MixedOperator::MixedOperator(const H1Space& h1, const L2Space& l2,
                             const PaGeometry& geom, const BasisTables& tables,
                             KernelVariant variant)
    : h1_(h1), l2_(l2), geom_(geom), tables_(tables), variant_(variant) {
  if (tables_.n1 > kMaxN1)
    throw std::invalid_argument("MixedOperator: order too high for kernels");
  min_parallel_ = static_cast<std::size_t>(std::ceil(
      kParallelGrainFlops /
      estimate_kernel_costs(variant_, tables_.order, 1).flops));
  const auto& mesh = h1_.mesh();
  for (std::size_t e = 0; e < mesh.num_elements(); ++e) {
    const auto c = mesh.element_coords(e);
    colors_[(c[0] % 2) + 2 * (c[1] % 2) + 4 * (c[2] % 2)].push_back(e);
  }
  // InitialPA reference tables: gradient of each basis function at each
  // quadrature point (shared across elements).
  const std::size_t n1 = tables_.n1, q = tables_.q;
  const std::size_t n13 = n1 * n1 * n1, q3 = q * q * q;
  phi_grad_.assign(q3 * n13 * 3, 0.0);
  const Matrix& B = tables_.interp;
  const Matrix& D = tables_.deriv;
  for (std::size_t n = 0; n < q; ++n)
    for (std::size_t m = 0; m < q; ++m)
      for (std::size_t l = 0; l < q; ++l) {
        const std::size_t pt = l + q * (m + q * n);
        for (std::size_t cc = 0; cc < n1; ++cc)
          for (std::size_t bb = 0; bb < n1; ++bb)
            for (std::size_t aa = 0; aa < n1; ++aa) {
              const std::size_t dof = aa + n1 * (bb + n1 * cc);
              double* g = &phi_grad_[(pt * n13 + dof) * 3];
              g[0] = D(l, aa) * B(m, bb) * B(n, cc);
              g[1] = B(l, aa) * D(m, bb) * B(n, cc);
              g[2] = B(l, aa) * B(m, bb) * D(n, cc);
            }
      }
}

void MixedOperator::apply_blocks(std::span<const double> p_in,
                                 std::span<const double> u_in,
                                 std::span<double> u_out,
                                 std::span<double> p_out, double sign_grad,
                                 double sign_div) const {
  if (p_in.size() != h1_.num_dofs() || p_out.size() != h1_.num_dofs() ||
      u_in.size() != l2_.num_dofs() || u_out.size() != l2_.num_dofs())
    throw std::invalid_argument("MixedOperator::apply_blocks: size mismatch");

  std::fill(p_out.begin(), p_out.end(), 0.0);

  switch (variant_) {
    case KernelVariant::InitialPA:
      apply_initial(p_in, u_in, u_out, p_out, sign_grad, sign_div);
      return;
    case KernelVariant::SharedPA:
      apply_shared(p_in, u_in, u_out, p_out, sign_grad, sign_div);
      return;
    default:
      break;
  }
  const bool fused = variant_ == KernelVariant::FusedPA ||
                     variant_ == KernelVariant::FusedMF;
  const bool mf = variant_ == KernelVariant::FusedMF;
  switch (tables_.order) {
    case 1: apply_optimized<1>(p_in, u_in, u_out, p_out, sign_grad, sign_div, fused, mf); return;
    case 2: apply_optimized<2>(p_in, u_in, u_out, p_out, sign_grad, sign_div, fused, mf); return;
    case 3: apply_optimized<3>(p_in, u_in, u_out, p_out, sign_grad, sign_div, fused, mf); return;
    case 4: apply_optimized<4>(p_in, u_in, u_out, p_out, sign_grad, sign_div, fused, mf); return;
    default:
      // High orders fall back to the dynamic sum-factorized kernel.
      apply_shared(p_in, u_in, u_out, p_out, sign_grad, sign_div);
      return;
  }
}

namespace {

/// Gather the element-local pressure DOFs.
inline void gather_pressure(const H1Space& h1, std::size_t ex, std::size_t ey,
                            std::size_t ez, const double* p, double* pe) {
  const std::size_t n1 = h1.tables().n1;
  std::size_t idx = 0;
  for (std::size_t c = 0; c < n1; ++c)
    for (std::size_t b = 0; b < n1; ++b)
      for (std::size_t a = 0; a < n1; ++a, ++idx)
        pe[idx] = p[h1.element_dof(ex, ey, ez, a, b, c)];
}

/// Scatter-add element-local pressure contributions.
inline void scatter_pressure(const H1Space& h1, std::size_t ex, std::size_t ey,
                             std::size_t ez, const double* pe, double* p) {
  const std::size_t n1 = h1.tables().n1;
  std::size_t idx = 0;
  for (std::size_t c = 0; c < n1; ++c)
    for (std::size_t b = 0; b < n1; ++b)
      for (std::size_t a = 0; a < n1; ++a, ++idx)
        p[h1.element_dof(ex, ey, ez, a, b, c)] += pe[idx];
}

/// Recompute w * det(J) * J^{-T} at reference point xi from flat corners
/// (the matrix-free geometry path).
inline void mf_grad_factor(const double* corners, const double xi[3], double w,
                           double g_out[9]) {
  double j[9] = {0, 0, 0, 0, 0, 0, 0, 0, 0};
  for (std::size_t cz = 0; cz < 2; ++cz)
    for (std::size_t cy = 0; cy < 2; ++cy)
      for (std::size_t cx = 0; cx < 2; ++cx) {
        const double sx = cx ? 0.5 : -0.5;
        const double sy = cy ? 0.5 : -0.5;
        const double sz = cz ? 0.5 : -0.5;
        const double fx = cx ? 0.5 * (1.0 + xi[0]) : 0.5 * (1.0 - xi[0]);
        const double fy = cy ? 0.5 * (1.0 + xi[1]) : 0.5 * (1.0 - xi[1]);
        const double fz = cz ? 0.5 * (1.0 + xi[2]) : 0.5 * (1.0 - xi[2]);
        const double* v = corners + 3 * (cx + 2 * cy + 4 * cz);
        const double dn[3] = {sx * fy * fz, fx * sy * fz, fx * fy * sz};
        for (int i = 0; i < 3; ++i)
          for (int d = 0; d < 3; ++d) j[3 * i + d] += v[i] * dn[d];
      }
  // Cofactor matrix = det(J) J^{-T}.
  g_out[0] = w * (j[4] * j[8] - j[5] * j[7]);
  g_out[1] = w * (j[5] * j[6] - j[3] * j[8]);
  g_out[2] = w * (j[3] * j[7] - j[4] * j[6]);
  g_out[3] = w * (j[2] * j[7] - j[1] * j[8]);
  g_out[4] = w * (j[0] * j[8] - j[2] * j[6]);
  g_out[5] = w * (j[1] * j[6] - j[0] * j[7]);
  g_out[6] = w * (j[1] * j[5] - j[2] * j[4]);
  g_out[7] = w * (j[2] * j[3] - j[0] * j[5]);
  g_out[8] = w * (j[0] * j[4] - j[1] * j[3]);
}

}  // namespace

void MixedOperator::apply_initial(std::span<const double> p_in,
                                  std::span<const double> u_in,
                                  std::span<double> u_out,
                                  std::span<double> p_out, double sg,
                                  double sd) const {
  const std::size_t n1 = tables_.n1, q = tables_.q;
  const std::size_t n13 = n1 * n1 * n1, q3 = q * q * q;
  const auto& mesh = h1_.mesh();
  const double* gf = geom_.grad_factor.data();
  const double* tab = phi_grad_.data();

  for (const auto& color : colors_) {
    parallel_for_min(color.size(), min_parallel_, [&](std::size_t ci) {
      const std::size_t e = color[ci];
      const auto ec = mesh.element_coords(e);
      double pe[kMaxN1 * kMaxN1 * kMaxN1];
      double acc[kMaxN1 * kMaxN1 * kMaxN1];
      gather_pressure(h1_, ec[0], ec[1], ec[2], p_in.data(), pe);
      std::memset(acc, 0, n13 * sizeof(double));

      const double* ue = u_in.data() + l2_.block_offset(e, 0);
      double* uo = u_out.data() + l2_.block_offset(e, 0);

      for (std::size_t pt = 0; pt < q3; ++pt) {
        const double* G = gf + (e * q3 + pt) * 9;
        // Divergence-side geometry first: s = G^T u at this point.
        const double ux = ue[0 * q3 + pt], uy = ue[1 * q3 + pt],
                     uz = ue[2 * q3 + pt];
        const double s0 = G[0] * ux + G[3] * uy + G[6] * uz;
        const double s1 = G[1] * ux + G[4] * uy + G[7] * uz;
        const double s2 = G[2] * ux + G[5] * uy + G[8] * uz;
        // One fused all-basis sweep: the reference-gradient row trow is
        // loaded once per point and feeds BOTH the gradient evaluation
        // (g += trow^T pe) and the divergence accumulation (acc += trow s),
        // instead of the former two back-to-back loops over the same row.
        double g[3] = {0.0, 0.0, 0.0};
        const double* trow = tab + pt * n13 * 3;
        for (std::size_t dof = 0; dof < n13; ++dof) {
          const double t0 = trow[3 * dof + 0], t1 = trow[3 * dof + 1],
                       t2 = trow[3 * dof + 2];
          const double pv = pe[dof];
          g[0] += t0 * pv;
          g[1] += t1 * pv;
          g[2] += t2 * pv;
          acc[dof] += t0 * s0 + t1 * s1 + t2 * s2;
        }
        // Gradient block: out_u = sg * G g.
        for (std::size_t d = 0; d < 3; ++d)
          uo[d * q3 + pt] =
              sg * (G[3 * d] * g[0] + G[3 * d + 1] * g[1] + G[3 * d + 2] * g[2]);
      }
      for (std::size_t dof = 0; dof < n13; ++dof) acc[dof] *= sd;
      scatter_pressure(h1_, ec[0], ec[1], ec[2], acc, p_out.data());
    });
  }
}

void MixedOperator::apply_shared(std::span<const double> p_in,
                                 std::span<const double> u_in,
                                 std::span<double> u_out,
                                 std::span<double> p_out, double sg,
                                 double sd) const {
  const std::size_t n1 = tables_.n1, q = tables_.q;
  const std::size_t q3 = q * q * q;
  const auto& mesh = h1_.mesh();
  const double* gf = geom_.grad_factor.data();
  const double* B = tables_.interp.data();
  const double* D = tables_.deriv.data();

  // Sweep 1 (all elements in parallel): gradient block into u_out.
  parallel_for_min(mesh.num_elements(), min_parallel_, [&](std::size_t e) {
    {
      const auto ec = mesh.element_coords(e);
      double pe[kMaxN1 * kMaxN1 * kMaxN1];
      gather_pressure(h1_, ec[0], ec[1], ec[2], p_in.data(), pe);

      // ---- gradient: sum-factorized E p, then geometry ----
      double t1B[kMaxQ * kMaxN1 * kMaxN1], t1D[kMaxQ * kMaxN1 * kMaxN1];
      for (std::size_t c = 0; c < n1; ++c)
        for (std::size_t b = 0; b < n1; ++b)
          for (std::size_t l = 0; l < q; ++l) {
            double sB = 0.0, sD = 0.0;
            const double* col = pe + n1 * (b + n1 * c);
            for (std::size_t a = 0; a < n1; ++a) {
              sB += B[l * n1 + a] * col[a];
              sD += D[l * n1 + a] * col[a];
            }
            t1B[l + q * (b + n1 * c)] = sB;
            t1D[l + q * (b + n1 * c)] = sD;
          }
      double t2BB[kMaxQ * kMaxQ * kMaxN1], t2BD[kMaxQ * kMaxQ * kMaxN1],
          t2DB[kMaxQ * kMaxQ * kMaxN1];
      for (std::size_t c = 0; c < n1; ++c)
        for (std::size_t m = 0; m < q; ++m)
          for (std::size_t l = 0; l < q; ++l) {
            double sBB = 0.0, sBD = 0.0, sDB = 0.0;
            for (std::size_t b = 0; b < n1; ++b) {
              const double vB = t1B[l + q * (b + n1 * c)];
              const double vD = t1D[l + q * (b + n1 * c)];
              sBB += B[m * n1 + b] * vB;
              sBD += D[m * n1 + b] * vB;
              sDB += B[m * n1 + b] * vD;
            }
            t2BB[l + q * (m + q * c)] = sBB;
            t2BD[l + q * (m + q * c)] = sBD;
            t2DB[l + q * (m + q * c)] = sDB;
          }
      double gx[kMaxQ * kMaxQ * kMaxQ], gy[kMaxQ * kMaxQ * kMaxQ],
          gz[kMaxQ * kMaxQ * kMaxQ];
      for (std::size_t n = 0; n < q; ++n)
        for (std::size_t m = 0; m < q; ++m)
          for (std::size_t l = 0; l < q; ++l) {
            double sx = 0.0, sy = 0.0, sz = 0.0;
            for (std::size_t c = 0; c < n1; ++c) {
              sx += B[n * n1 + c] * t2DB[l + q * (m + q * c)];
              sy += B[n * n1 + c] * t2BD[l + q * (m + q * c)];
              sz += D[n * n1 + c] * t2BB[l + q * (m + q * c)];
            }
            const std::size_t pt = l + q * (m + q * n);
            gx[pt] = sx;
            gy[pt] = sy;
            gz[pt] = sz;
          }
      double* uo = u_out.data() + l2_.block_offset(e, 0);
      for (std::size_t pt = 0; pt < q3; ++pt) {
        const double* G = gf + (e * q3 + pt) * 9;
        uo[0 * q3 + pt] = sg * (G[0] * gx[pt] + G[1] * gy[pt] + G[2] * gz[pt]);
        uo[1 * q3 + pt] = sg * (G[3] * gx[pt] + G[4] * gy[pt] + G[5] * gz[pt]);
        uo[2 * q3 + pt] = sg * (G[6] * gx[pt] + G[7] * gy[pt] + G[8] * gz[pt]);
      }
    }
  });

  // Sweep 2 (colored): divergence block into p_out.
  for (const auto& color : colors_) {
    parallel_for_min(color.size(), min_parallel_, [&](std::size_t ci) {
      const std::size_t e = color[ci];
      const auto ec = mesh.element_coords(e);
      const double* ue = u_in.data() + l2_.block_offset(e, 0);
      double sx[kMaxQ * kMaxQ * kMaxQ], sy[kMaxQ * kMaxQ * kMaxQ],
          sz[kMaxQ * kMaxQ * kMaxQ];
      for (std::size_t pt = 0; pt < q3; ++pt) {
        const double* G = gf + (e * q3 + pt) * 9;
        const double ux = ue[0 * q3 + pt], uy = ue[1 * q3 + pt],
                     uz = ue[2 * q3 + pt];
        sx[pt] = G[0] * ux + G[3] * uy + G[6] * uz;
        sy[pt] = G[1] * ux + G[4] * uy + G[7] * uz;
        sz[pt] = G[2] * ux + G[5] * uy + G[8] * uz;
      }

      // ---- divergence: transposed contractions of (sx, sy, sz) ----
      double r1x[kMaxQ * kMaxQ * kMaxN1], r1y[kMaxQ * kMaxQ * kMaxN1],
          r1z[kMaxQ * kMaxQ * kMaxN1];
      for (std::size_t c = 0; c < n1; ++c)
        for (std::size_t m = 0; m < q; ++m)
          for (std::size_t l = 0; l < q; ++l) {
            double ax = 0.0, ay = 0.0, az = 0.0;
            for (std::size_t n = 0; n < q; ++n) {
              const std::size_t pt = l + q * (m + q * n);
              ax += B[n * n1 + c] * sx[pt];
              ay += B[n * n1 + c] * sy[pt];
              az += D[n * n1 + c] * sz[pt];
            }
            r1x[l + q * (m + q * c)] = ax;
            r1y[l + q * (m + q * c)] = ay;
            r1z[l + q * (m + q * c)] = az;
          }
      double r2x[kMaxQ * kMaxN1 * kMaxN1], r2yz[kMaxQ * kMaxN1 * kMaxN1];
      for (std::size_t c = 0; c < n1; ++c)
        for (std::size_t b = 0; b < n1; ++b)
          for (std::size_t l = 0; l < q; ++l) {
            double ax = 0.0, ayz = 0.0;
            for (std::size_t m = 0; m < q; ++m) {
              const std::size_t idx = l + q * (m + q * c);
              ax += B[m * n1 + b] * r1x[idx];
              ayz += D[m * n1 + b] * r1y[idx] + B[m * n1 + b] * r1z[idx];
            }
            r2x[l + q * (b + n1 * c)] = ax;
            r2yz[l + q * (b + n1 * c)] = ayz;
          }
      double acc[kMaxN1 * kMaxN1 * kMaxN1];
      for (std::size_t c = 0; c < n1; ++c)
        for (std::size_t b = 0; b < n1; ++b)
          for (std::size_t a = 0; a < n1; ++a) {
            double s = 0.0;
            for (std::size_t l = 0; l < q; ++l) {
              const std::size_t idx = l + q * (b + n1 * c);
              s += D[l * n1 + a] * r2x[idx] + B[l * n1 + a] * r2yz[idx];
            }
            acc[a + n1 * (b + n1 * c)] = sd * s;
          }
      scatter_pressure(h1_, ec[0], ec[1], ec[2], acc, p_out.data());
    });
  }
}

template <int P>
void MixedOperator::apply_optimized(std::span<const double> p_in,
                                    std::span<const double> u_in,
                                    std::span<double> u_out,
                                    std::span<double> p_out, double sg,
                                    double sd, bool fused,
                                    bool matrix_free) const {
  constexpr std::size_t n1 = P + 1;
  constexpr std::size_t q = P;
  constexpr std::size_t n13 = n1 * n1 * n1;
  constexpr std::size_t q3 = q * q * q;
  const auto& mesh = h1_.mesh();
  const double* __restrict gf = geom_.grad_factor.data();
  const double* __restrict corners_flat = geom_.corners.data();
  double Bm[q][n1], Dm[q][n1];
  for (std::size_t l = 0; l < q; ++l)
    for (std::size_t a = 0; a < n1; ++a) {
      Bm[l][a] = tables_.interp(l, a);
      Dm[l][a] = tables_.deriv(l, a);
    }
  const auto& glp = tables_.gl.points;
  const auto& glw = tables_.gl.weights;

  // Element body: gradient into u_out and (optionally) divergence into acc.
  auto element_grad = [&](std::size_t e, double g_pt[3][q3]) {
    const auto ec = mesh.element_coords(e);
    double pe[n13];
    gather_pressure(h1_, ec[0], ec[1], ec[2], p_in.data(), pe);
    double t1B[q][n1][n1], t1D[q][n1][n1];
    for (std::size_t c = 0; c < n1; ++c)
      for (std::size_t b = 0; b < n1; ++b)
        for (std::size_t l = 0; l < q; ++l) {
          double sB = 0.0, sD = 0.0;
          const double* __restrict col = pe + n1 * (b + n1 * c);
          for (std::size_t a = 0; a < n1; ++a) {
            sB += Bm[l][a] * col[a];
            sD += Dm[l][a] * col[a];
          }
          t1B[l][b][c] = sB;
          t1D[l][b][c] = sD;
        }
    double t2BB[q][q][n1], t2BD[q][q][n1], t2DB[q][q][n1];
    for (std::size_t c = 0; c < n1; ++c)
      for (std::size_t m = 0; m < q; ++m)
        for (std::size_t l = 0; l < q; ++l) {
          double sBB = 0.0, sBD = 0.0, sDB = 0.0;
          for (std::size_t b = 0; b < n1; ++b) {
            sBB += Bm[m][b] * t1B[l][b][c];
            sBD += Dm[m][b] * t1B[l][b][c];
            sDB += Bm[m][b] * t1D[l][b][c];
          }
          t2BB[l][m][c] = sBB;
          t2BD[l][m][c] = sBD;
          t2DB[l][m][c] = sDB;
        }
    for (std::size_t n = 0; n < q; ++n)
      for (std::size_t m = 0; m < q; ++m)
        for (std::size_t l = 0; l < q; ++l) {
          double sx = 0.0, sy = 0.0, sz = 0.0;
          for (std::size_t c = 0; c < n1; ++c) {
            sx += Bm[n][c] * t2DB[l][m][c];
            sy += Bm[n][c] * t2BD[l][m][c];
            sz += Dm[n][c] * t2BB[l][m][c];
          }
          const std::size_t pt = l + q * (m + q * n);
          g_pt[0][pt] = sx;
          g_pt[1][pt] = sy;
          g_pt[2][pt] = sz;
        }
  };

  auto load_factor = [&](std::size_t e, std::size_t pt, double Gmf[9]) {
    if (matrix_free) {
      const std::size_t l = pt % q, m = (pt / q) % q, n = pt / (q * q);
      const double xi[3] = {glp[l], glp[m], glp[n]};
      mf_grad_factor(corners_flat + e * 24, xi, glw[l] * glw[m] * glw[n], Gmf);
      return static_cast<const double*>(Gmf);
    }
    return gf + (e * q3 + pt) * 9;
  };

  // Geometry stage, gradient side: out_u = sg * G g.
  auto geometry_grad = [&](std::size_t e, const double g_pt[3][q3],
                           double* uo) {
    double Gmf[9];
    for (std::size_t pt = 0; pt < q3; ++pt) {
      const double* G = load_factor(e, pt, Gmf);
      uo[0 * q3 + pt] =
          sg * (G[0] * g_pt[0][pt] + G[1] * g_pt[1][pt] + G[2] * g_pt[2][pt]);
      uo[1 * q3 + pt] =
          sg * (G[3] * g_pt[0][pt] + G[4] * g_pt[1][pt] + G[5] * g_pt[2][pt]);
      uo[2 * q3 + pt] =
          sg * (G[6] * g_pt[0][pt] + G[7] * g_pt[1][pt] + G[8] * g_pt[2][pt]);
    }
  };

  // Geometry stage, divergence side: s = G^T u.
  auto geometry_div = [&](std::size_t e, const double* ue,
                          double s_pt[3][q3]) {
    double Gmf[9];
    for (std::size_t pt = 0; pt < q3; ++pt) {
      const double* G = load_factor(e, pt, Gmf);
      const double ux = ue[0 * q3 + pt], uy = ue[1 * q3 + pt],
                   uz = ue[2 * q3 + pt];
      s_pt[0][pt] = G[0] * ux + G[3] * uy + G[6] * uz;
      s_pt[1][pt] = G[1] * ux + G[4] * uy + G[7] * uz;
      s_pt[2][pt] = G[2] * ux + G[5] * uy + G[8] * uz;
    }
  };

  // Fused geometry stage: one pass loads G once for both sides.
  auto geometry_fused = [&](std::size_t e, const double g_pt[3][q3],
                            double s_pt[3][q3], double* uo, const double* ue) {
    double Gmf[9];
    for (std::size_t pt = 0; pt < q3; ++pt) {
      const double* G = load_factor(e, pt, Gmf);
      uo[0 * q3 + pt] =
          sg * (G[0] * g_pt[0][pt] + G[1] * g_pt[1][pt] + G[2] * g_pt[2][pt]);
      uo[1 * q3 + pt] =
          sg * (G[3] * g_pt[0][pt] + G[4] * g_pt[1][pt] + G[5] * g_pt[2][pt]);
      uo[2 * q3 + pt] =
          sg * (G[6] * g_pt[0][pt] + G[7] * g_pt[1][pt] + G[8] * g_pt[2][pt]);
      const double ux = ue[0 * q3 + pt], uy = ue[1 * q3 + pt],
                   uz = ue[2 * q3 + pt];
      s_pt[0][pt] = G[0] * ux + G[3] * uy + G[6] * uz;
      s_pt[1][pt] = G[1] * ux + G[4] * uy + G[7] * uz;
      s_pt[2][pt] = G[2] * ux + G[5] * uy + G[8] * uz;
    }
  };

  auto element_div = [&](std::size_t e, const double s_pt[3][q3]) {
    const auto ec = mesh.element_coords(e);
    double r1x[q][q][n1], r1y[q][q][n1], r1z[q][q][n1];
    for (std::size_t c = 0; c < n1; ++c)
      for (std::size_t m = 0; m < q; ++m)
        for (std::size_t l = 0; l < q; ++l) {
          double ax = 0.0, ay = 0.0, az = 0.0;
          for (std::size_t n = 0; n < q; ++n) {
            const std::size_t pt = l + q * (m + q * n);
            ax += Bm[n][c] * s_pt[0][pt];
            ay += Bm[n][c] * s_pt[1][pt];
            az += Dm[n][c] * s_pt[2][pt];
          }
          r1x[l][m][c] = ax;
          r1y[l][m][c] = ay;
          r1z[l][m][c] = az;
        }
    double r2x[q][n1][n1], r2yz[q][n1][n1];
    for (std::size_t c = 0; c < n1; ++c)
      for (std::size_t b = 0; b < n1; ++b)
        for (std::size_t l = 0; l < q; ++l) {
          double ax = 0.0, ayz = 0.0;
          for (std::size_t m = 0; m < q; ++m) {
            ax += Bm[m][b] * r1x[l][m][c];
            ayz += Dm[m][b] * r1y[l][m][c] + Bm[m][b] * r1z[l][m][c];
          }
          r2x[l][b][c] = ax;
          r2yz[l][b][c] = ayz;
        }
    double acc[n13];
    for (std::size_t c = 0; c < n1; ++c)
      for (std::size_t b = 0; b < n1; ++b)
        for (std::size_t a = 0; a < n1; ++a) {
          double s = 0.0;
          for (std::size_t l = 0; l < q; ++l)
            s += Dm[l][a] * r2x[l][b][c] + Bm[l][a] * r2yz[l][b][c];
          acc[a + n1 * (b + n1 * c)] = sd * s;
        }
    scatter_pressure(h1_, ec[0], ec[1], ec[2], acc, p_out.data());
  };

  if (fused) {
    // One sweep: both blocks per element visit (colored for the scatter),
    // geometry factors loaded exactly once per point.
    for (const auto& color : colors_) {
      parallel_for_min(color.size(), min_parallel_, [&](std::size_t ci) {
        const std::size_t e = color[ci];
        double g_pt[3][q3], s_pt[3][q3];
        element_grad(e, g_pt);
        geometry_fused(e, g_pt, s_pt, u_out.data() + l2_.block_offset(e, 0),
                       u_in.data() + l2_.block_offset(e, 0));
        element_div(e, s_pt);
      });
    }
  } else {
    // Two sweeps: gradient over all elements (element-private writes), then
    // divergence over colors; geometry factors are traversed twice.
    parallel_for_min(mesh.num_elements(), min_parallel_, [&](std::size_t e) {
      double g_pt[3][q3];
      element_grad(e, g_pt);
      geometry_grad(e, g_pt, u_out.data() + l2_.block_offset(e, 0));
    });
    for (const auto& color : colors_) {
      parallel_for_min(color.size(), min_parallel_, [&](std::size_t ci) {
        const std::size_t e = color[ci];
        double s_pt[3][q3];
        geometry_div(e, u_in.data() + l2_.block_offset(e, 0), s_pt);
        element_div(e, s_pt);
      });
    }
  }
}

template void MixedOperator::apply_optimized<1>(std::span<const double>,
                                                std::span<const double>,
                                                std::span<double>,
                                                std::span<double>, double,
                                                double, bool, bool) const;
template void MixedOperator::apply_optimized<2>(std::span<const double>,
                                                std::span<const double>,
                                                std::span<double>,
                                                std::span<double>, double,
                                                double, bool, bool) const;
template void MixedOperator::apply_optimized<3>(std::span<const double>,
                                                std::span<const double>,
                                                std::span<double>,
                                                std::span<double>, double,
                                                double, bool, bool) const;
template void MixedOperator::apply_optimized<4>(std::span<const double>,
                                                std::span<const double>,
                                                std::span<double>,
                                                std::span<double>, double,
                                                double, bool, bool) const;

}  // namespace tsunami
