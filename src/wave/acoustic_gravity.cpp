#include "wave/acoustic_gravity.hpp"

#include <cmath>
#include <stdexcept>

#include "parallel/parallel_for.hpp"

namespace tsunami {

AcousticGravityModel::AcousticGravityModel(const HexMesh& mesh,
                                           std::size_t order,
                                           const PhysicalConstants& constants,
                                           KernelVariant variant)
    : mesh_(mesh), phys_(constants), tables_(order) {
  h1_ = std::make_unique<H1Space>(mesh_, tables_);
  l2_ = std::make_unique<L2Space>(mesh_, tables_);
  geom_ = build_pa_geometry(mesh_, tables_);
  op_ = std::make_unique<MixedOperator>(*h1_, *l2_, geom_, tables_, variant);
  source_ = std::make_unique<BottomSourceMap>(*h1_);

  // Diagonal velocity mass: rho * w detJ at each collocation point, same for
  // all three components.
  const std::size_t q3 = geom_.q3;
  mass_u_.resize(l2_->num_dofs());
  for (std::size_t e = 0; e < geom_.nelem; ++e)
    for (std::size_t d = 0; d < 3; ++d)
      for (std::size_t pt = 0; pt < q3; ++pt)
        mass_u_[l2_->dof(e, d, pt)] = phys_.rho * geom_.wdetj[e * q3 + pt];

  // Diagonal pressure mass: K^{-1} * lumped volume mass + free-surface term.
  mass_p_ = h1_lumped_mass(*h1_);
  const double kinv = 1.0 / phys_.bulk_modulus();
  for (auto& v : mass_p_) v *= kinv;
  const auto surf = surface_gravity_diagonal(*h1_, phys_);
  for (std::size_t i = 0; i < mass_p_.size(); ++i) mass_p_[i] += surf[i];

  inv_mass_u_.resize(mass_u_.size());
  for (std::size_t i = 0; i < mass_u_.size(); ++i) {
    if (mass_u_[i] <= 0.0)
      throw std::runtime_error("AcousticGravityModel: nonpositive u-mass");
    inv_mass_u_[i] = 1.0 / mass_u_[i];
  }
  inv_mass_p_.resize(mass_p_.size());
  for (std::size_t i = 0; i < mass_p_.size(); ++i) {
    if (mass_p_[i] <= 0.0)
      throw std::runtime_error("AcousticGravityModel: nonpositive p-mass");
    inv_mass_p_[i] = 1.0 / mass_p_[i];
  }

  absorbing_diag_ = absorbing_diagonal(*h1_, phys_);
}

void AcousticGravityModel::apply_a(std::span<const double> y,
                                   std::span<double> out) const {
  if (y.size() != state_dim() || out.size() != state_dim())
    throw std::invalid_argument("apply_a: size mismatch");
  const auto p_in = pressure_part(y);
  const auto u_in = velocity_part(y);
  auto u_out = velocity_part(out);
  auto p_out = pressure_part(out);
  // A = [0, B; -B^T, S_a].
  op_->apply_blocks(p_in, u_in, u_out, p_out, +1.0, -1.0);
  if (absorbing_on_) {
    const double* pd = p_in.data();
    double* po = p_out.data();
    const double* sa = absorbing_diag_.data();
    parallel_for_min(p_out.size(), 1 << 14,
                     [&](std::size_t i) { po[i] += sa[i] * pd[i]; });
  }
}

void AcousticGravityModel::apply_generator(std::span<const double> y,
                                           std::span<double> out) const {
  apply_a(y, out);
  // out = -M^{-1} out.
  auto u_out = velocity_part(out);
  auto p_out = pressure_part(out);
  const double* imu = inv_mass_u_.data();
  const double* imp = inv_mass_p_.data();
  double* up = u_out.data();
  double* pp = p_out.data();
  parallel_for_min(u_out.size(), 1 << 14,
                   [&](std::size_t i) { up[i] = -imu[i] * up[i]; });
  parallel_for_min(p_out.size(), 1 << 14,
                   [&](std::size_t i) { pp[i] = -imp[i] * pp[i]; });
}

void AcousticGravityModel::apply_generator_transpose(
    std::span<const double> y, std::span<double> out) const {
  if (y.size() != state_dim() || out.size() != state_dim())
    throw std::invalid_argument("apply_generator_transpose: size mismatch");
  // Lambda^T = -A^T M^{-1}: scale by the diagonal M^{-1}, then apply A^T.
  std::vector<double> scaled(y.size());
  {
    const auto u_in = velocity_part(y);
    const auto p_in = pressure_part(y);
    double* su = scaled.data();
    double* sp = scaled.data() + velocity_dim();
    const double* imu = inv_mass_u_.data();
    const double* imp = inv_mass_p_.data();
    const double* ud = u_in.data();
    const double* pd = p_in.data();
    parallel_for_min(u_in.size(), 1 << 14,
                     [&](std::size_t i) { su[i] = imu[i] * ud[i]; });
    parallel_for_min(p_in.size(), 1 << 14,
                     [&](std::size_t i) { sp[i] = imp[i] * pd[i]; });
  }
  // A^T = [0, -B; B^T, S_a]; then negate everything for Lambda^T = -A^T ...:
  // net signs: u_out = +B p_scaled, p_out = -B^T u_scaled - S_a p_scaled.
  const std::span<const double> sc(scaled);
  const auto u_in = velocity_part(sc);
  const auto p_in = pressure_part(sc);
  auto u_out = velocity_part(out);
  auto p_out = pressure_part(out);
  op_->apply_blocks(p_in, u_in, u_out, p_out, +1.0, -1.0);
  if (absorbing_on_) {
    const double* pd = p_in.data();
    double* po = p_out.data();
    const double* sa = absorbing_diag_.data();
    parallel_for_min(p_out.size(), 1 << 14,
                     [&](std::size_t i) { po[i] -= sa[i] * pd[i]; });
  }
}

double AcousticGravityModel::energy(std::span<const double> y) const {
  const auto u = velocity_part(y);
  const auto p = pressure_part(y);
  double e = 0.0;
  for (std::size_t i = 0; i < u.size(); ++i) e += mass_u_[i] * u[i] * u[i];
  for (std::size_t i = 0; i < p.size(); ++i) e += mass_p_[i] * p[i] * p[i];
  return 0.5 * e;
}

void AcousticGravityModel::pressure_mass_inverse(std::span<const double> in,
                                                 std::span<double> out) const {
  if (in.size() != pressure_dim() || out.size() != pressure_dim())
    throw std::invalid_argument("pressure_mass_inverse: size mismatch");
  for (std::size_t i = 0; i < in.size(); ++i) out[i] = inv_mass_p_[i] * in[i];
}

double cfl_timestep(const HexMesh& mesh, std::size_t order,
                    const PhysicalConstants& constants, double cfl) {
  const double h = mesh.min_edge_length();
  const double p2 = static_cast<double>(order * order);
  return cfl * h / (constants.sound_speed * p2);
}

}  // namespace tsunami
