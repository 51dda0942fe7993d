#include "fft/fft.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace tsunami {

namespace {

constexpr double kPi = std::numbers::pi;

bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

// Length of a RealFftPlan's complex half plan. An odd length has to be
// rejected here: its truncated half (3 / 2 = 1) can be a power of two.
std::size_t half_length(std::size_t n) {
  if (n < 2 || !is_pow2(n))
    throw std::invalid_argument(
        "RealFftPlan: length must be a power of two >= 2");
  return n / 2;
}

std::vector<std::size_t> make_bitrev(std::size_t n) {
  std::vector<std::size_t> rev(n, 0);
  std::size_t log2n = 0;
  while ((std::size_t{1} << log2n) < n) ++log2n;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t r = 0;
    for (std::size_t b = 0; b < log2n; ++b)
      if (i & (std::size_t{1} << b)) r |= std::size_t{1} << (log2n - 1 - b);
    rev[i] = r;
  }
  return rev;
}

std::vector<Complex> make_twiddles(std::size_t n) {
  std::vector<Complex> tw(n / 2);
  for (std::size_t k = 0; k < n / 2; ++k) {
    const double ang = -2.0 * kPi * static_cast<double>(k) /
                       static_cast<double>(n);
    tw[k] = Complex(std::cos(ang), std::sin(ang));
  }
  return tw;
}

// Iterative Cooley-Tukey with precomputed tables, fused stage pairs
// ("radix-2^2"): after the bit-reversal permutation, stages (L, 2L) are
// processed together — each 4-point group makes one trip through memory
// instead of two, and the second-stage twiddle of the odd lane is -i times
// that of the even lane (exactly, by the quarter-turn identity), which
// replaces a table load + complex multiply with a swap/negate. `inverse`
// conjugates twiddles; the flag is loop-invariant, so the compiler
// unswitches the loops into branch-free forward/inverse specializations.
// Normalization is applied by the caller.
void radix2_core(std::span<Complex> a, const std::vector<std::size_t>& bitrev,
                 const std::vector<Complex>& twiddle, bool inverse) {
  const std::size_t n = a.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = bitrev[i];
    if (i < j) std::swap(a[i], a[j]);
  }
  std::size_t stages = 0;
  while ((std::size_t{1} << stages) < n) ++stages;
  std::size_t len = 2;
  if (stages % 2) {
    // Odd stage count: one plain radix-2 stage (unit twiddles) first, so
    // the remaining stages pair up.
    for (std::size_t start = 0; start + 1 < n; start += 2) {
      const Complex u = a[start];
      const Complex v = a[start + 1];
      a[start] = u + v;
      a[start + 1] = u - v;
    }
    len = 4;
  }
  for (; len <= n; len <<= 2) {
    const std::size_t quarter = len >> 1;      // k range of the fused pair
    const std::size_t pair = len << 1;         // combined block size (2L)
    const std::size_t stride1 = n / len;       // first-stage twiddle stride
    const std::size_t stride2 = stride1 >> 1;  // second-stage twiddle stride
    for (std::size_t start = 0; start < n; start += pair) {
      for (std::size_t k = 0; k < quarter; ++k) {
        Complex w1 = twiddle[k * stride1];
        Complex w2 = twiddle[k * stride2];
        if (inverse) {
          w1 = std::conj(w1);
          w2 = std::conj(w2);
        }
        // Quarter-turn identity: tw[k + n/4] = -i tw[k] (conjugated: +i).
        const Complex w2o = inverse ? Complex(-w2.imag(), w2.real())
                                    : Complex(w2.imag(), -w2.real());
        Complex* p0 = &a[start + k];
        Complex* p1 = p0 + quarter;
        Complex* p2 = p0 + len;
        Complex* p3 = p2 + quarter;
        // Stage L on both halves of the 2L block...
        const Complex t1 = *p1 * w1;
        const Complex t3 = *p3 * w1;
        const Complex b0 = *p0 + t1;
        const Complex b1 = *p0 - t1;
        const Complex b2 = *p2 + t3;
        const Complex b3 = *p2 - t3;
        // ...then stage 2L across them, all still in registers.
        const Complex u2 = b2 * w2;
        const Complex u3 = b3 * w2o;
        *p0 = b0 + u2;
        *p2 = b0 - u2;
        *p1 = b1 + u3;
        *p3 = b1 - u3;
      }
    }
  }
}

}  // namespace

FftPlan::FftPlan(std::size_t length) : n_(length) {
  if (!is_pow2(n_))
    throw std::invalid_argument("FftPlan: length must be a power of two");
  bitrev_ = make_bitrev(n_);
  twiddle_ = make_twiddles(n_);
}

void FftPlan::execute(std::span<Complex> data, bool inverse) const {
  if (data.size() != n_) throw std::invalid_argument("FftPlan: length mismatch");
  radix2_core(data, bitrev_, twiddle_, inverse);
  if (inverse) {
    const double inv = 1.0 / static_cast<double>(n_);
    for (auto& v : data) v *= inv;
  }
}

void FftPlan::forward(std::span<Complex> data) const { execute(data, false); }

void FftPlan::inverse(std::span<Complex> data) const { execute(data, true); }

// ---------------------------------------------------------------------------
// Real-input transforms.
// ---------------------------------------------------------------------------

RealFftPlan::RealFftPlan(std::size_t length)
    : n_(length), half_(half_length(length)) {
  untangle_.resize(n_ / 2 + 1);
  for (std::size_t k = 0; k <= n_ / 2; ++k) {
    const double ang = -2.0 * kPi * static_cast<double>(k) /
                       static_cast<double>(n_);
    untangle_[k] = Complex(std::cos(ang), std::sin(ang));
  }
}

void RealFftPlan::forward_strided_split(const double* x, std::size_t xstride,
                                        std::size_t nsamples, double* re,
                                        double* im, std::size_t sstride,
                                        std::span<Complex> scratch) const {
  const std::size_t nh = n_ / 2;
  if (nsamples > n_)
    throw std::invalid_argument("RealFftPlan: too many samples");
  if (scratch.size() < scratch_size())
    throw std::invalid_argument("RealFftPlan: buffer too small");
  Complex* z = scratch.data();
  // Pack: z_k = x_{2k} + i x_{2k+1}, zero-padding past nsamples. The strided
  // gather is fused into the pack so channel slabs need no staging copy.
  const std::size_t full = nsamples / 2;  // pairs with both samples present
  for (std::size_t k = 0; k < full; ++k)
    z[k] = Complex(x[(2 * k) * xstride], x[(2 * k + 1) * xstride]);
  if (full < nh) {
    z[full] = (nsamples % 2) ? Complex(x[(2 * full) * xstride], 0.0)
                             : Complex(0.0, 0.0);
    std::fill(z + full + 1, z + nh, Complex(0.0, 0.0));
  }
  half_.forward(std::span<Complex>(z, nh));
  // Untangle straight into the destination planes: with E/O the spectra of
  // the even/odd subsequences, X_k = E_k + w_k O_k, w_k = exp(-2 pi i k / n).
  // Bins k and nh-k share their inputs, so one traversal of the first half
  // emits both ends (no second sweep, no AoS staging).
  {
    // k = 0 and k = nh (Z_0 both times).
    const Complex z0 = z[0];
    re[0] = z0.real() + z0.imag();
    im[0] = 0.0;
    re[nh * sstride] = z0.real() - z0.imag();
    im[nh * sstride] = 0.0;
  }
  for (std::size_t k = 1; 2 * k <= nh; ++k) {
    const std::size_t kn = nh - k;
    const Complex zk = z[k];
    const Complex zkn = z[kn];
    // Pair (k, kn): E_k = conj(E_kn) etc., so both bins come from {zk, zkn}.
    const Complex e_k = 0.5 * (zk + std::conj(zkn));
    const Complex o_k = Complex(0.0, -0.5) * (zk - std::conj(zkn));
    const Complex xk = e_k + untangle_[k] * o_k;
    re[k * sstride] = xk.real();
    im[k * sstride] = xk.imag();
    if (kn != k) {
      const Complex e_kn = std::conj(e_k);
      const Complex o_kn = std::conj(o_k);
      const Complex xkn = e_kn + untangle_[kn] * o_kn;
      re[kn * sstride] = xkn.real();
      im[kn * sstride] = xkn.imag();
    }
  }
}

void RealFftPlan::inverse_strided_split(const double* re, const double* im,
                                        std::size_t sstride, double* x,
                                        std::size_t xstride,
                                        std::size_t nsamples,
                                        std::span<Complex> scratch) const {
  const std::size_t nh = n_ / 2;
  if (nsamples > n_)
    throw std::invalid_argument("RealFftPlan: too many samples");
  if (scratch.size() < scratch_size())
    throw std::invalid_argument("RealFftPlan: buffer too small");
  Complex* z = scratch.data();
  // Re-tangle: E_k = (X_k + conj(X_{N-k}))/2, w_k O_k = (X_k - conj(X_{N-k}))/2,
  // Z_k = E_k + i O_k (N = n/2); exact inverse of the forward untangle. Z is
  // conj-symmetric in pairs (Z_{N-k} = conj(E_k) + i conj(O_k)), so one
  // traversal of the first half fills both ends, reading the split planes
  // once.
  {
    // Bins 0 and N are structurally real (as documented): their stored
    // imaginary parts are ignored.
    const Complex a(re[0], 0.0);
    const Complex b(re[nh * sstride], 0.0);
    z[0] = 0.5 * (a + b) + Complex(0.0, 1.0) * (0.5 * (a - b));
  }
  for (std::size_t k = 1; 2 * k <= nh; ++k) {
    const std::size_t kn = nh - k;
    const Complex a(re[k * sstride], im[k * sstride]);
    const Complex b(re[kn * sstride], -im[kn * sstride]);
    const Complex e = 0.5 * (a + b);
    const Complex o = std::conj(untangle_[k]) * (0.5 * (a - b));
    z[k] = e + Complex(0.0, 1.0) * o;
    if (kn != k) z[kn] = std::conj(e) + Complex(0.0, 1.0) * std::conj(o);
  }
  half_.inverse(std::span<Complex>(z, nh));
  // Unpack x_{2k} = Re z_k, x_{2k+1} = Im z_k; scatter with the caller's
  // stride, emitting only the requested time prefix.
  const std::size_t full = nsamples / 2;
  for (std::size_t k = 0; k < full; ++k) {
    x[(2 * k) * xstride] = z[k].real();
    x[(2 * k + 1) * xstride] = z[k].imag();
  }
  if (nsamples % 2) x[(2 * full) * xstride] = z[full].real();
}

std::vector<Complex> dft_reference(std::span<const Complex> x, bool inverse) {
  const std::size_t n = x.size();
  std::vector<Complex> out(n, Complex(0.0, 0.0));
  const double sign = inverse ? 2.0 : -2.0;
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t j = 0; j < n; ++j) {
      const double ang = sign * kPi * static_cast<double>((j * k) % n) /
                         static_cast<double>(n);
      out[k] += x[j] * Complex(std::cos(ang), std::sin(ang));
    }
    if (inverse) out[k] /= static_cast<double>(n);
  }
  return out;
}

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace tsunami
