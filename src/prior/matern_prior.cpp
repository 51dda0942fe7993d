#include "prior/matern_prior.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "parallel/parallel_for.hpp"

namespace tsunami {

MaternPrior::MaternPrior(std::size_t nx1, std::size_t ny1, double hx,
                         double hy, const MaternPriorConfig& config)
    : nx1_(nx1),
      ny1_(ny1),
      n_(nx1 * ny1),
      cfg_(config),
      a_(nx1 * ny1, nx1) {
  if (nx1 < 2 || ny1 < 2)
    throw std::invalid_argument("MaternPrior: grid too small");

  // Lindgren (2011) / hIPPYlib calibration for the 2-D bilaplacian prior
  // C = (delta M + gamma K)^{-1} M (delta M + gamma K)^{-1}, the SPDE
  //   gamma (kappa^2 - Laplacian) u = W,  kappa^2 = delta / gamma,
  // whose solution is Matern with nu = 1 in d = 2:
  //   rho = sqrt(8 nu) / kappa,   sigma^2 = 1 / (4 pi gamma^2 kappa^2).
  const double rho = cfg_.correlation_length;
  const double sigma = cfg_.sigma;
  const double kappa = std::sqrt(8.0) / rho;
  gamma_ = 1.0 / (2.0 * sigma * std::sqrt(std::numbers::pi) * kappa);
  delta_ = gamma_ * kappa * kappa;

  // Lumped mass (cell areas) and 5-point stiffness on the structured grid.
  mass_.assign(n_, 0.0);
  for (std::size_t b = 0; b < ny1_; ++b)
    for (std::size_t a = 0; a < nx1_; ++a) {
      const double wx = (a == 0 || a + 1 == nx1_) ? 0.5 : 1.0;
      const double wy = (b == 0 || b + 1 == ny1_) ? 0.5 : 1.0;
      mass_[a + nx1_ * b] = wx * wy * hx * hy;
    }
  sqrt_mass_.resize(n_);
  inv_mass_.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    sqrt_mass_[i] = std::sqrt(mass_[i]);
    inv_mass_[i] = 1.0 / mass_[i];
  }

  // A = delta M + gamma K with K the standard finite-difference/bilinear-FE
  // stiffness: x-neighbours couple with -hy/hx, y-neighbours with -hx/hy
  // (boundary-weighted like the mass).
  for (std::size_t i = 0; i < n_; ++i) a_.add(i, i, delta_ * mass_[i]);
  for (std::size_t b = 0; b < ny1_; ++b)
    for (std::size_t a = 0; a + 1 < nx1_; ++a) {
      const std::size_t i = a + nx1_ * b;
      const std::size_t j = i + 1;
      const double wy = (b == 0 || b + 1 == ny1_) ? 0.5 : 1.0;
      const double k = gamma_ * wy * hy / hx;
      a_.add(i, i, k);
      a_.add(j, j, k);
      a_.add(i, j, -k);
    }
  for (std::size_t b = 0; b + 1 < ny1_; ++b)
    for (std::size_t a = 0; a < nx1_; ++a) {
      const std::size_t i = a + nx1_ * b;
      const std::size_t j = i + nx1_;
      const double wx = (a == 0 || a + 1 == nx1_) ? 0.5 : 1.0;
      const double k = gamma_ * wx * hx / hy;
      a_.add(i, i, k);
      a_.add(j, j, k);
      a_.add(i, j, -k);
    }
  chol_ = std::make_unique<BandedCholesky>(a_);
}

void MaternPrior::apply(std::span<const double> x, std::span<double> y) const {
  if (x.size() != n_ || y.size() != n_)
    throw std::invalid_argument("MaternPrior::apply: size mismatch");
  std::copy(x.begin(), x.end(), y.begin());
  chol_->solve_in_place(y);
  for (std::size_t i = 0; i < n_; ++i) y[i] *= mass_[i];
  chol_->solve_in_place(y);
}

void MaternPrior::apply_inverse(std::span<const double> x,
                                std::span<double> y) const {
  if (x.size() != n_ || y.size() != n_)
    throw std::invalid_argument("MaternPrior::apply_inverse: size mismatch");
  std::vector<double> t(n_);
  a_.multiply(x, std::span<double>(t));
  for (std::size_t i = 0; i < n_; ++i) t[i] *= inv_mass_[i];
  a_.multiply(t, y);
}

void MaternPrior::apply_sqrt(std::span<const double> x,
                             std::span<double> y) const {
  if (x.size() != n_ || y.size() != n_)
    throw std::invalid_argument("MaternPrior::apply_sqrt: size mismatch");
  for (std::size_t i = 0; i < n_; ++i) y[i] = sqrt_mass_[i] * x[i];
  chol_->solve_in_place(y);
}

void MaternPrior::apply_time_blocks(std::span<const double> x,
                                    std::span<double> y,
                                    std::size_t nt) const {
  if (x.size() != n_ * nt || y.size() != n_ * nt)
    throw std::invalid_argument("MaternPrior::apply_time_blocks: mismatch");
  parallel_for(nt, [&](std::size_t t) {
    apply(x.subspan(t * n_, n_), y.subspan(t * n_, n_));
  });
}

double MaternPrior::pointwise_variance(std::size_t r) const {
  if (r >= n_) throw std::out_of_range("MaternPrior::pointwise_variance");
  // C_rr = e_r^T A^{-1} M A^{-1} e_r = || M^{1/2} A^{-1} e_r ||^2.
  std::vector<double> e(n_, 0.0);
  e[r] = 1.0;
  chol_->solve_in_place(std::span<double>(e));
  double s = 0.0;
  for (std::size_t i = 0; i < n_; ++i) s += mass_[i] * e[i] * e[i];
  return s;
}

std::vector<double> MaternPrior::sample(Rng& rng) const {
  std::vector<double> white = rng.normal_vector(n_);
  std::vector<double> out(n_);
  apply_sqrt(white, std::span<double>(out));
  return out;
}

}  // namespace tsunami
