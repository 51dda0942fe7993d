// Tests for the FFT-based block lower-triangular Toeplitz engine against the
// O(Nt^2) dense reference, across block shapes, including the transpose
// paths.

#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "linalg/blas.hpp"
#include "toeplitz/block_toeplitz.hpp"
#include "util/rng.hpp"

namespace tsunami {
namespace {

struct Shape {
  std::size_t rows, cols, nt;
};

std::vector<double> random_blocks(const Shape& s, unsigned seed) {
  Rng rng(seed);
  return rng.normal_vector(s.rows * s.cols * s.nt);
}

/// y = T^T x from the time-domain blocks: y_j = sum_{i >= j} F_{i-j}^T x_i.
std::vector<double> dense_transpose(std::span<const double> blocks,
                                    std::size_t rows, std::size_t cols,
                                    std::size_t nt,
                                    std::span<const double> x) {
  std::vector<double> y(cols * nt, 0.0);
  for (std::size_t i = 0; i < nt; ++i)
    for (std::size_t j = 0; j <= i; ++j) {
      const double* fk = blocks.data() + (i - j) * rows * cols;
      for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
          y[j * cols + c] += fk[r * cols + c] * x[i * rows + r];
    }
  return y;
}

class ToeplitzShapeTest : public ::testing::TestWithParam<Shape> {};

TEST_P(ToeplitzShapeTest, ApplyMatchesDenseReference) {
  const Shape s = GetParam();
  const auto blocks = random_blocks(s, 11);
  BlockToeplitz t(s.rows, s.cols, s.nt, blocks);
  t.set_keep_blocks(blocks);

  Rng rng(12);
  const auto x = rng.normal_vector(t.input_dim());
  std::vector<double> y_fft(t.output_dim()), y_ref(t.output_dim());
  t.apply(x, std::span<double>(y_fft));
  t.apply_dense_reference(x, std::span<double>(y_ref));
  const double scale = amax(y_ref) + 1e-30;
  for (std::size_t i = 0; i < y_ref.size(); ++i)
    EXPECT_NEAR(y_fft[i], y_ref[i], 1e-11 * scale);
}

TEST_P(ToeplitzShapeTest, TransposeIsExactAdjoint) {
  const Shape s = GetParam();
  const auto blocks = random_blocks(s, 13);
  BlockToeplitz t(s.rows, s.cols, s.nt, blocks);

  Rng rng(14);
  const auto x = rng.normal_vector(t.input_dim());
  const auto d = rng.normal_vector(t.output_dim());
  std::vector<double> tx(t.output_dim()), ttd(t.input_dim());
  t.apply(x, std::span<double>(tx));
  t.apply_transpose(d, std::span<double>(ttd));
  const double lhs = dot(tx, d);
  const double rhs = dot(x, ttd);
  EXPECT_NEAR(lhs, rhs, 1e-10 * std::abs(lhs) + 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ToeplitzShapeTest,
    ::testing::Values(Shape{1, 1, 1}, Shape{1, 1, 16}, Shape{3, 5, 7},
                      Shape{5, 3, 12}, Shape{2, 17, 9}, Shape{8, 8, 32},
                      Shape{4, 25, 20}));

TEST(BlockToeplitz, LowerTriangularCausality) {
  // Input supported on the last time block must produce output only there.
  const Shape s{3, 4, 8};
  const auto blocks = random_blocks(s, 15);
  BlockToeplitz t(s.rows, s.cols, s.nt, blocks);
  Rng rng(16);
  std::vector<double> x(t.input_dim(), 0.0);
  for (std::size_t c = 0; c < s.cols; ++c)
    x[(s.nt - 1) * s.cols + c] = rng.normal();
  std::vector<double> y(t.output_dim());
  t.apply(x, std::span<double>(y));
  for (std::size_t i = 0; i + 1 < s.nt; ++i)
    for (std::size_t r = 0; r < s.rows; ++r)
      EXPECT_NEAR(y[i * s.rows + r], 0.0, 1e-12);
}

TEST(BlockToeplitz, FirstColumnReproducesBlocks) {
  // T applied to e_(t=0, c) stacks column c of every block.
  const Shape s{4, 3, 6};
  const auto blocks = random_blocks(s, 17);
  BlockToeplitz t(s.rows, s.cols, s.nt, blocks);
  for (std::size_t c = 0; c < s.cols; ++c) {
    std::vector<double> e(t.input_dim(), 0.0);
    e[c] = 1.0;
    std::vector<double> y(t.output_dim());
    t.apply(e, std::span<double>(y));
    for (std::size_t k = 0; k < s.nt; ++k)
      for (std::size_t r = 0; r < s.rows; ++r)
        EXPECT_NEAR(y[k * s.rows + r], blocks[(k * s.rows + r) * s.cols + c],
                    1e-11);
  }
}

TEST(BlockToeplitz, ScalarCaseIsDiscreteConvolution) {
  // rows = cols = 1: y_i = sum_{j<=i} f_{i-j} x_j.
  const std::vector<double> f{1.0, -0.5, 0.25, 0.125};
  BlockToeplitz t(1, 1, 4, f);
  const std::vector<double> x{2.0, 0.0, -1.0, 3.0};
  std::vector<double> y(4);
  t.apply(x, std::span<double>(y));
  EXPECT_NEAR(y[0], 2.0, 1e-12);
  EXPECT_NEAR(y[1], -1.0, 1e-12);
  EXPECT_NEAR(y[2], -0.5, 1e-12);
  EXPECT_NEAR(y[3], 3.75, 1e-12);
}

TEST(BlockToeplitz, StorageIsCompact) {
  // Fourier storage is O(L * rows * cols), not O((nt * rows) * (nt * cols)).
  const Shape s{4, 100, 64};
  const auto blocks = random_blocks(s, 22);
  BlockToeplitz t(s.rows, s.cols, s.nt, blocks);
  const std::size_t dense_bytes =
      s.rows * s.nt * s.cols * s.nt * sizeof(double);
  EXPECT_LT(t.storage_bytes(), dense_bytes / 10);
}

TEST(BlockToeplitz, RandomizedShapesMatchDenseReference) {
  // Randomized sweep over non-square blocks, non-power-of-two nt, and
  // nrhs > 1, all against O(nt^2) dense references: the forward apply and
  // the transpose, one column at a time. Shapes are drawn from a fixed seed
  // so failures reproduce.
  Rng shape_rng(777);
  const std::size_t nt_pool[] = {3, 5, 6, 7, 9, 11, 12, 20, 24, 31, 33};
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t rows =
        1 + static_cast<std::size_t>(std::abs(shape_rng.normal()) * 4) % 9;
    const std::size_t cols =
        1 + static_cast<std::size_t>(std::abs(shape_rng.normal()) * 12) % 40;
    const std::size_t nt =
        nt_pool[static_cast<std::size_t>(trial) % std::size(nt_pool)];
    const std::size_t nrhs = 1 + static_cast<std::size_t>(trial) % 5;
    SCOPED_TRACE(::testing::Message() << "rows=" << rows << " cols=" << cols
                                      << " nt=" << nt << " nrhs=" << nrhs);
    Rng rng(900 + static_cast<unsigned>(trial));
    const auto blocks = rng.normal_vector(rows * cols * nt);
    BlockToeplitz t(rows, cols, nt, blocks);
    t.set_keep_blocks(blocks);

    for (std::size_t v = 0; v < nrhs; ++v) {
      const auto x = rng.normal_vector(t.input_dim());
      std::vector<double> y(t.output_dim()), ref(t.output_dim());
      t.apply(x, std::span<double>(y));
      t.apply_dense_reference(x, std::span<double>(ref));
      const double scale = amax(ref) + 1.0;
      for (std::size_t i = 0; i < ref.size(); ++i)
        EXPECT_NEAR(y[i], ref[i], 1e-11 * scale) << "col " << v;
    }

    Matrix d(t.output_dim(), nrhs);
    for (std::size_t i = 0; i < d.rows(); ++i)
      for (std::size_t v = 0; v < nrhs; ++v) d(i, v) = rng.normal();
    for (std::size_t v = 0; v < nrhs; ++v) {
      std::vector<double> dv(t.output_dim()), ttd(t.input_dim());
      for (std::size_t i = 0; i < dv.size(); ++i) dv[i] = d(i, v);
      t.apply_transpose(dv, std::span<double>(ttd));
      const auto ref = dense_transpose(blocks, rows, cols, nt, dv);
      const double scale = amax(ref) + 1.0;
      for (std::size_t i = 0; i < ref.size(); ++i)
        EXPECT_NEAR(ttd[i], ref[i], 1e-11 * scale) << "col " << v;
    }
  }
}

TEST(BlockToeplitz, ExplicitWorkspaceMatchesLegacyApiBitwise) {
  // The workspace-less overloads route through a thread_local workspace;
  // both paths must produce identical bits, and one workspace must be
  // reusable across calls AND across operators of different shapes.
  const Shape shapes[] = {{3, 17, 9}, {8, 8, 32}, {1, 1, 5}};
  ToeplitzWorkspace ws;  // deliberately shared across all shapes below
  for (const Shape& s : shapes) {
    SCOPED_TRACE(::testing::Message() << s.rows << "x" << s.cols << "x"
                                      << s.nt);
    const auto blocks = random_blocks(s, 31);
    BlockToeplitz t(s.rows, s.cols, s.nt, blocks);
    Rng rng(32);
    const auto x = rng.normal_vector(t.input_dim());
    std::vector<double> y_legacy(t.output_dim()), y_ws(t.output_dim());
    t.apply(x, std::span<double>(y_legacy));
    t.apply(x, std::span<double>(y_ws), ws);
    for (std::size_t i = 0; i < y_legacy.size(); ++i)
      EXPECT_EQ(y_legacy[i], y_ws[i]);

    const auto d = rng.normal_vector(t.output_dim());
    std::vector<double> yt_legacy(t.input_dim()), yt_ws(t.input_dim());
    t.apply_transpose(d, std::span<double>(yt_legacy));
    t.apply_transpose(d, std::span<double>(yt_ws), ws);
    for (std::size_t i = 0; i < yt_legacy.size(); ++i)
      EXPECT_EQ(yt_legacy[i], yt_ws[i]);

    // Second call with the (now warm) workspace: still identical.
    std::vector<double> y_ws2(t.output_dim());
    t.apply(x, std::span<double>(y_ws2), ws);
    for (std::size_t i = 0; i < y_legacy.size(); ++i)
      EXPECT_EQ(y_legacy[i], y_ws2[i]);
  }
}

TEST(BlockToeplitz, TransposePrefixMatchesZeroPaddedTranspose) {
  const Shape s{4, 13, 11};
  const auto blocks = random_blocks(s, 41);
  BlockToeplitz t(s.rows, s.cols, s.nt, blocks);
  Rng rng(42);
  const auto d_full = rng.normal_vector(t.output_dim());
  ToeplitzWorkspace ws;
  for (std::size_t ticks = 0; ticks <= s.nt; ++ticks) {
    std::vector<double> padded(t.output_dim(), 0.0);
    std::copy(d_full.begin(),
              d_full.begin() + static_cast<std::ptrdiff_t>(ticks * s.rows),
              padded.begin());
    std::vector<double> y_pad(t.input_dim()), y_prefix(t.input_dim());
    t.apply_transpose(padded, std::span<double>(y_pad), ws);
    t.apply_transpose_prefix(
        std::span<const double>(d_full).first(ticks * s.rows), ticks,
        std::span<double>(y_prefix), ws);
    for (std::size_t i = 0; i < y_pad.size(); ++i)
      EXPECT_EQ(y_pad[i], y_prefix[i]) << "ticks=" << ticks << " i=" << i;
  }
  std::vector<double> y_bad(t.input_dim());
  EXPECT_THROW(t.apply_transpose_prefix(d_full, s.nt + 1,
                                        std::span<double>(y_bad), ws),
               std::invalid_argument);
}

TEST(BlockToeplitz, ConcurrentAppliesWithPerThreadWorkspacesAreExact) {
  // The sharing contract under the TSan CI preset: one immutable operator,
  // many threads, each with its OWN workspace (here: the thread_local one
  // behind the legacy API plus an explicit per-thread workspace). Results
  // must be bit-identical to the serial answer.
  const Shape s{5, 24, 16};
  const auto blocks = random_blocks(s, 51);
  BlockToeplitz t(s.rows, s.cols, s.nt, blocks);
  Rng rng(52);
  const auto x = rng.normal_vector(t.input_dim());
  std::vector<double> y_serial(t.output_dim());
  t.apply(x, std::span<double>(y_serial));

  constexpr std::size_t kThreads = 4;
  constexpr int kRepeats = 8;
  std::vector<std::vector<double>> results(
      kThreads, std::vector<double>(t.output_dim()));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t ti = 0; ti < kThreads; ++ti) {
    threads.emplace_back([&, ti] {
      ToeplitzWorkspace ws;  // explicit per-thread workspace
      for (int rep = 0; rep < kRepeats; ++rep) {
        if (rep % 2 == 0)
          t.apply(x, std::span<double>(results[ti]), ws);
        else
          t.apply(x, std::span<double>(results[ti]));  // thread_local path
      }
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t ti = 0; ti < kThreads; ++ti)
    for (std::size_t i = 0; i < y_serial.size(); ++i)
      EXPECT_EQ(results[ti][i], y_serial[i]) << "thread " << ti;
}

TEST(BlockToeplitz, RejectsBadSizes) {
  const std::vector<double> blocks(3 * 4 * 5, 1.0);
  BlockToeplitz t(3, 4, 5, blocks);
  std::vector<double> x(7), y(15);
  EXPECT_THROW(t.apply(x, std::span<double>(y)), std::invalid_argument);
  EXPECT_THROW(BlockToeplitz(3, 4, 6, blocks), std::invalid_argument);
  EXPECT_THROW(t.apply_dense_reference(x, std::span<double>(y)),
               std::logic_error);
}

}  // namespace
}  // namespace tsunami
