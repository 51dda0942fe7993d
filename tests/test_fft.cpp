// Tests for the FFT library: the power-of-two complex transform against the
// naive DFT and its algebraic properties, and the split-complex real-input
// entry points the Toeplitz engine runs.

#include <gtest/gtest.h>

#include <cmath>

#include "fft/fft.hpp"
#include "util/rng.hpp"

namespace tsunami {
namespace {

std::vector<Complex> random_signal(std::size_t n, unsigned seed) {
  Rng rng(seed);
  std::vector<Complex> x(n);
  for (auto& v : x) v = Complex(rng.normal(), rng.normal());
  return x;
}

double max_err(const std::vector<Complex>& a, const std::vector<Complex>& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

class FftSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizeTest, ForwardMatchesNaiveDft) {
  const std::size_t n = GetParam();
  auto x = random_signal(n, static_cast<unsigned>(n));
  const auto expected = dft_reference(x);
  FftPlan plan(n);
  plan.forward(std::span<Complex>(x));
  EXPECT_LT(max_err(x, expected), 1e-9 * static_cast<double>(n))
      << "size " << n;
}

TEST_P(FftSizeTest, InverseMatchesNaiveInverseDft) {
  const std::size_t n = GetParam();
  auto x = random_signal(n, static_cast<unsigned>(n) + 1);
  const auto expected = dft_reference(x, /*inverse=*/true);
  FftPlan plan(n);
  plan.inverse(std::span<Complex>(x));
  EXPECT_LT(max_err(x, expected), 1e-9 * static_cast<double>(n));
}

TEST_P(FftSizeTest, RoundTripIsIdentity) {
  const std::size_t n = GetParam();
  const auto orig = random_signal(n, static_cast<unsigned>(n) + 2);
  auto x = orig;
  FftPlan plan(n);
  plan.forward(std::span<Complex>(x));
  plan.inverse(std::span<Complex>(x));
  EXPECT_LT(max_err(x, orig), 1e-10 * static_cast<double>(n));
}

// Odd and even stage counts: 2, 8, 32 and 128 take the plain radix-2 stage
// before the fused pairs.
INSTANTIATE_TEST_SUITE_P(Sizes, FftSizeTest,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64, 128, 256));

TEST(Fft, LinearityProperty) {
  const std::size_t n = 64;
  const auto x = random_signal(n, 7);
  const auto y = random_signal(n, 8);
  const Complex alpha(1.3, -0.4);
  FftPlan plan(n);

  auto fx = x, fy = y;
  plan.forward(std::span<Complex>(fx));
  plan.forward(std::span<Complex>(fy));
  std::vector<Complex> combo(n);
  for (std::size_t i = 0; i < n; ++i) combo[i] = alpha * x[i] + y[i];
  plan.forward(std::span<Complex>(combo));
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_LT(std::abs(combo[i] - (alpha * fx[i] + fy[i])), 1e-10);
}

TEST(Fft, ParsevalEnergyConservation) {
  const std::size_t n = 128;
  auto x = random_signal(n, 9);
  double time_energy = 0.0;
  for (const auto& v : x) time_energy += std::norm(v);
  FftPlan plan(n);
  plan.forward(std::span<Complex>(x));
  double freq_energy = 0.0;
  for (const auto& v : x) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
              1e-9 * time_energy);
}

TEST(Fft, ImpulseTransformsToConstant) {
  const std::size_t n = 32;
  std::vector<Complex> x(n, Complex(0.0, 0.0));
  x[0] = Complex(1.0, 0.0);
  FftPlan(n).forward(std::span<Complex>(x));
  for (const auto& v : x) EXPECT_LT(std::abs(v - Complex(1.0, 0.0)), 1e-12);
}

TEST(Fft, ConstantTransformsToImpulse) {
  const std::size_t n = 32;
  std::vector<Complex> x(n, Complex(1.0, 0.0));
  FftPlan(n).forward(std::span<Complex>(x));
  EXPECT_NEAR(x[0].real(), static_cast<double>(n), 1e-10);
  for (std::size_t i = 1; i < n; ++i) EXPECT_LT(std::abs(x[i]), 1e-10);
}

TEST(Fft, RealInputHasConjugateSymmetry) {
  const std::size_t n = 64;
  Rng rng(10);
  std::vector<Complex> x(n);
  for (auto& v : x) v = Complex(rng.normal(), 0.0);
  FftPlan(n).forward(std::span<Complex>(x));
  for (std::size_t k = 1; k < n / 2; ++k)
    EXPECT_LT(std::abs(x[k] - std::conj(x[n - k])), 1e-10);
}

TEST(Fft, TimeShiftBecomesPhaseRamp) {
  const std::size_t n = 64;
  const auto x = random_signal(n, 11);
  std::vector<Complex> shifted(n);
  for (std::size_t i = 0; i < n; ++i) shifted[(i + 1) % n] = x[i];
  auto fx = x, fs = shifted;
  FftPlan plan(n);
  plan.forward(std::span<Complex>(fx));
  plan.forward(std::span<Complex>(fs));
  for (std::size_t k = 0; k < n; ++k) {
    const double ang = -2.0 * M_PI * static_cast<double>(k) / static_cast<double>(n);
    const Complex phase(std::cos(ang), std::sin(ang));
    EXPECT_LT(std::abs(fs[k] - fx[k] * phase), 1e-9);
  }
}

// ---------------------------------------------------------------------------
// Real-input transforms: the r2c/c2r packing path through the split-complex
// entry points the Toeplitz engine calls.
// ---------------------------------------------------------------------------

class RealFftSizeTest : public ::testing::TestWithParam<std::size_t> {};

/// Half spectrum of all of x into split planes at unit stride.
void forward_split(const RealFftPlan& plan, const std::vector<double>& x,
                   std::vector<double>& re, std::vector<double>& im) {
  std::vector<Complex> scratch(plan.scratch_size());
  re.assign(plan.spectrum_size(), 0.0);
  im.assign(plan.spectrum_size(), 0.0);
  plan.forward_strided_split(x.data(), 1, x.size(), re.data(), im.data(), 1,
                             std::span<Complex>(scratch));
}

TEST_P(RealFftSizeTest, ForwardMatchesComplexFftOfRealSignal) {
  const std::size_t n = GetParam();
  Rng rng(static_cast<unsigned>(n) + 40);
  const auto x = rng.normal_vector(n);
  std::vector<Complex> full(n);
  for (std::size_t i = 0; i < n; ++i) full[i] = Complex(x[i], 0.0);
  FftPlan(n).forward(std::span<Complex>(full));

  RealFftPlan plan(n);
  ASSERT_EQ(plan.spectrum_size(), n / 2 + 1);
  std::vector<double> re, im;
  forward_split(plan, x, re, im);
  for (std::size_t k = 0; k <= n / 2; ++k)
    EXPECT_LT(std::abs(Complex(re[k], im[k]) - full[k]),
              1e-10 * static_cast<double>(n))
        << "bin " << k;
}

TEST_P(RealFftSizeTest, RoundTripIsIdentity) {
  const std::size_t n = GetParam();
  Rng rng(static_cast<unsigned>(n) + 41);
  const auto x = rng.normal_vector(n);
  RealFftPlan plan(n);
  std::vector<double> re, im;
  forward_split(plan, x, re, im);
  std::vector<double> back(n);
  std::vector<Complex> scratch(plan.scratch_size());
  plan.inverse_strided_split(re.data(), im.data(), 1, back.data(), 1, n,
                             std::span<Complex>(scratch));
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(back[i], x[i], 1e-11 * static_cast<double>(n));
}

TEST_P(RealFftSizeTest, ZeroPaddedShortSignalMatchesExplicitPadding) {
  const std::size_t n = GetParam();
  const std::size_t nshort = n / 2 + 1;
  Rng rng(static_cast<unsigned>(n) + 42);
  const auto x = rng.normal_vector(nshort);
  std::vector<double> padded(n, 0.0);
  std::copy(x.begin(), x.end(), padded.begin());

  RealFftPlan plan(n);
  std::vector<double> re_short, im_short, re_pad, im_pad;
  forward_split(plan, x, re_short, im_short);
  forward_split(plan, padded, re_pad, im_pad);
  for (std::size_t k = 0; k < re_pad.size(); ++k) {
    EXPECT_EQ(re_short[k], re_pad[k]) << "bin " << k;
    EXPECT_EQ(im_short[k], im_pad[k]) << "bin " << k;
  }
}

TEST_P(RealFftSizeTest, StridedGatherScatterMatchesContiguous) {
  // The engine's layout: sample t of channel c at x[t * nch + c], bin k of
  // channel c at re/im[k * nch + c], and n/2 samples read and written back,
  // as for an Nt-tick series in its 2 Nt circulant.
  const std::size_t n = GetParam();
  const std::size_t nch = 3;
  const std::size_t nsamples = n / 2;
  Rng rng(static_cast<unsigned>(n) + 43);
  const auto x = rng.normal_vector(nsamples * nch);
  RealFftPlan plan(n);
  const std::size_t nspec = plan.spectrum_size();
  std::vector<double> re(nspec * nch), im(nspec * nch);
  std::vector<Complex> scratch(plan.scratch_size());
  for (std::size_t c = 0; c < nch; ++c)
    plan.forward_strided_split(x.data() + c, nch, nsamples, re.data() + c,
                               im.data() + c, nch, std::span<Complex>(scratch));
  for (std::size_t c = 0; c < nch; ++c) {
    std::vector<double> dense(nsamples), dre, dim;
    for (std::size_t t = 0; t < nsamples; ++t) dense[t] = x[t * nch + c];
    forward_split(plan, dense, dre, dim);
    for (std::size_t k = 0; k < nspec; ++k) {
      EXPECT_EQ(re[k * nch + c], dre[k]) << "channel " << c << " bin " << k;
      EXPECT_EQ(im[k * nch + c], dim[k]) << "channel " << c << " bin " << k;
    }
  }

  // The strided inverse scatters only the requested samples of its own
  // channel: channel 1 is not inverted, and its slots stay untouched.
  std::vector<double> out(nsamples * nch, -7.0);
  for (std::size_t c = 0; c < nch; c += 2)
    plan.inverse_strided_split(re.data() + c, im.data() + c, nch,
                               out.data() + c, nch, nsamples,
                               std::span<Complex>(scratch));
  for (std::size_t t = 0; t < nsamples; ++t) {
    EXPECT_NEAR(out[t * nch], x[t * nch], 1e-11 * static_cast<double>(n));
    EXPECT_EQ(out[t * nch + 1], -7.0);
    EXPECT_NEAR(out[t * nch + 2], x[t * nch + 2],
                1e-11 * static_cast<double>(n));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RealFftSizeTest,
                         ::testing::Values(2, 4, 8, 16, 32, 64, 128, 256, 512,
                                           1024));

TEST(RealFft, RejectsOddAndZeroLengths) {
  // Both plans take powers of two only; the real plan also needs n >= 2.
  // 3 halves (truncated) to the power of two 1.
  const std::size_t bad[] = {0, 3, 6, 7, 100};
  for (const std::size_t n : bad) {
    EXPECT_THROW(FftPlan{n}, std::invalid_argument) << "length " << n;
    EXPECT_THROW(RealFftPlan{n}, std::invalid_argument) << "length " << n;
  }
  EXPECT_THROW(RealFftPlan(1), std::invalid_argument);
  RealFftPlan plan(16);
  std::vector<Complex> small_scratch(plan.scratch_size() - 1),
      scratch(plan.scratch_size());
  std::vector<double> x(17), re(plan.spectrum_size()), im(plan.spectrum_size());
  EXPECT_THROW(plan.forward_strided_split(x.data(), 1, 16, re.data(), im.data(),
                                          1, std::span<Complex>(small_scratch)),
               std::invalid_argument);
  EXPECT_THROW(plan.forward_strided_split(x.data(), 1, 17, re.data(), im.data(),
                                          1, std::span<Complex>(scratch)),
               std::invalid_argument);
  EXPECT_THROW(plan.inverse_strided_split(re.data(), im.data(), 1, x.data(), 1,
                                          17, std::span<Complex>(scratch)),
               std::invalid_argument);
}

TEST(Fft, PlanRejectsSizeMismatch) {
  FftPlan plan(16);
  std::vector<Complex> wrong(8);
  EXPECT_THROW(plan.forward(std::span<Complex>(wrong)), std::invalid_argument);
  EXPECT_THROW(plan.inverse(std::span<Complex>(wrong)), std::invalid_argument);
}

TEST(NextPow2, Values) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(17), 32u);
  EXPECT_EQ(next_pow2(1024), 1024u);
}

}  // namespace
}  // namespace tsunami
