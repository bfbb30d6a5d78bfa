#include "axonn/tensor/gemm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <ostream>

#include "axonn/base/rng.hpp"
#include "axonn/tensor/bf16.hpp"
#include "axonn/tensor/gemm_tiled.hpp"

namespace axonn {
namespace {

// Straightforward reference: C = alpha * op(A) op(B) + beta * C.
Matrix reference_gemm(GemmMode mode, float alpha, const Matrix& a,
                      const Matrix& b, float beta, const Matrix& c_in) {
  const Matrix opa =
      (mode == GemmMode::kTN || mode == GemmMode::kTT) ? a.transposed() : a;
  const Matrix opb =
      (mode == GemmMode::kNT || mode == GemmMode::kTT) ? b.transposed() : b;
  Matrix c = c_in;
  for (std::size_t i = 0; i < opa.rows(); ++i) {
    for (std::size_t j = 0; j < opb.cols(); ++j) {
      float acc = 0.0f;
      for (std::size_t l = 0; l < opa.cols(); ++l) {
        acc += opa(i, l) * opb(l, j);
      }
      c(i, j) = alpha * acc + beta * c(i, j);
    }
  }
  return c;
}

TEST(GemmTest, IdentityIsNeutral) {
  Rng rng(1);
  const Matrix a = Matrix::randn(4, 4, rng);
  const Matrix c = gemm(GemmMode::kNN, a, Matrix::identity(4));
  EXPECT_LT(Matrix::max_abs_diff(c, a), 1e-6f);
}

TEST(GemmTest, KnownSmallProduct) {
  Matrix a(2, 3);
  Matrix b(3, 2);
  float v = 1.0f;
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = v++;
  v = 1.0f;
  for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = v++;
  const Matrix c = gemm(GemmMode::kNN, a, b);
  // [[1,2,3],[4,5,6]] x [[1,2],[3,4],[5,6]] = [[22,28],[49,64]]
  EXPECT_EQ(c(0, 0), 22.0f);
  EXPECT_EQ(c(0, 1), 28.0f);
  EXPECT_EQ(c(1, 0), 49.0f);
  EXPECT_EQ(c(1, 1), 64.0f);
}

TEST(GemmTest, ShapeInference) {
  const Matrix a(5, 3);
  const Matrix b(3, 7);
  const GemmShape s = gemm_shape(GemmMode::kNN, a, b);
  EXPECT_EQ(s.m, 5u);
  EXPECT_EQ(s.n, 7u);
  EXPECT_EQ(s.k, 3u);
  EXPECT_EQ(gemm_flops(s), 2ull * 5 * 7 * 3);
}

TEST(GemmTest, ShapeMismatchThrows) {
  const Matrix a(5, 3);
  const Matrix b(4, 7);
  EXPECT_THROW(gemm_shape(GemmMode::kNN, a, b), Error);
  // But A^T (3x5) x B (4x7) is also invalid; A (5x3) x B^T (7x4) invalid...
  EXPECT_THROW(gemm_shape(GemmMode::kNT, a, b), Error);
  // ...while A^T with a 5-row B works.
  const Matrix b2(5, 2);
  EXPECT_NO_THROW(gemm_shape(GemmMode::kTN, a, b2));
}

TEST(GemmTest, ModeNames) {
  EXPECT_STREQ(to_string(GemmMode::kNN), "NN");
  EXPECT_STREQ(to_string(GemmMode::kNT), "NT");
  EXPECT_STREQ(to_string(GemmMode::kTN), "TN");
  EXPECT_STREQ(to_string(GemmMode::kTT), "TT");
}

// Property sweep: all four modes, several shapes, alpha/beta combos, against
// the reference implementation.
struct GemmCase {
  GemmMode mode;
  std::size_t m, k, n;
  float alpha, beta;
};

// Names each case by its fields (e.g. "NN_m4_k5_n6_alpha1_beta0"), so test
// names are stable instead of a dump of the struct's bytes and padding.
void PrintTo(const GemmCase& c, std::ostream* os) {
  *os << to_string(c.mode) << "_m" << c.m << "_k" << c.k << "_n" << c.n
      << "_alpha" << c.alpha << "_beta" << c.beta;
}

class GemmProperty : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmProperty, MatchesReference) {
  const GemmCase& p = GetParam();
  Rng rng(77);
  const bool ta = (p.mode == GemmMode::kTN || p.mode == GemmMode::kTT);
  const bool tb = (p.mode == GemmMode::kNT || p.mode == GemmMode::kTT);
  const Matrix a = ta ? Matrix::randn(p.k, p.m, rng) : Matrix::randn(p.m, p.k, rng);
  const Matrix b = tb ? Matrix::randn(p.n, p.k, rng) : Matrix::randn(p.k, p.n, rng);
  Matrix c = Matrix::randn(p.m, p.n, rng);
  const Matrix expected = reference_gemm(p.mode, p.alpha, a, b, p.beta, c);
  gemm(p.mode, p.alpha, a, b, p.beta, c);
  EXPECT_LT(Matrix::max_abs_diff(c, expected), 1e-4f)
      << to_string(p.mode) << " m=" << p.m << " k=" << p.k << " n=" << p.n;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GemmProperty,
    ::testing::Values(
        GemmCase{GemmMode::kNN, 4, 5, 6, 1.0f, 0.0f},
        GemmCase{GemmMode::kNT, 4, 5, 6, 1.0f, 0.0f},
        GemmCase{GemmMode::kTN, 4, 5, 6, 1.0f, 0.0f},
        GemmCase{GemmMode::kTT, 4, 5, 6, 1.0f, 0.0f},
        GemmCase{GemmMode::kNN, 1, 1, 1, 2.0f, 0.5f},
        GemmCase{GemmMode::kNT, 7, 3, 2, -1.0f, 1.0f},
        GemmCase{GemmMode::kTN, 2, 9, 8, 0.5f, 2.0f},
        GemmCase{GemmMode::kTT, 6, 2, 5, 1.5f, -0.5f},
        GemmCase{GemmMode::kNN, 16, 16, 16, 1.0f, 0.0f},
        GemmCase{GemmMode::kTN, 13, 11, 17, 1.0f, 1.0f}));

TEST(GemmTest, TransposeModesAgreeWithExplicitTranspose) {
  Rng rng(3);
  const Matrix a = Matrix::randn(6, 4, rng);
  const Matrix b = Matrix::randn(6, 5, rng);
  // A^T x B  ==  transpose(A) x B computed in NN mode.
  const Matrix tn = gemm(GemmMode::kTN, a, b);
  const Matrix nn = gemm(GemmMode::kNN, a.transposed(), b);
  EXPECT_LT(Matrix::max_abs_diff(tn, nn), 1e-5f);
}

TEST(GemmBf16Test, RoundsOperandsButAccumulatesFp32) {
  // A value that bf16 cannot represent must influence the result only via
  // its rounded form.
  Matrix a(1, 1);
  a(0, 0) = 1.0f + std::ldexp(1.0f, -9);  // rounds to exactly 1.0
  Matrix b = Matrix::identity(1);
  const Matrix c = gemm_bf16(GemmMode::kNN, a, b);
  EXPECT_EQ(c(0, 0), 1.0f);
}

TEST(GemmBf16Test, CloseToFp32ForWellScaledData) {
  Rng rng(21);
  const Matrix a = Matrix::randn(8, 8, rng);
  const Matrix b = Matrix::randn(8, 8, rng);
  const Matrix exact = gemm(GemmMode::kNN, a, b);
  const Matrix approx = gemm_bf16(GemmMode::kNN, a, b);
  // Relative error per element bounded by ~k * 2^-8 of operand magnitudes.
  EXPECT_LT(Matrix::max_abs_diff(exact, approx), 0.35f);
  EXPECT_GT(Matrix::max_abs_diff(exact, approx), 0.0f);  // it *is* lossy
}

TEST(GemmTest, BetaZeroOverwritesStaleValues) {
  Matrix c = Matrix::full(2, 2, 1e30f);  // garbage that must not survive
  const Matrix a = Matrix::identity(2);
  gemm(GemmMode::kNN, 1.0f, a, a, 0.0f, c);
  EXPECT_EQ(c(0, 0), 1.0f);
  EXPECT_EQ(c(0, 1), 0.0f);
}

TEST(GemmTest, ZeroTimesNonFinitePropagatesNaN) {
  // Regression: the kernel used to skip rows where the A element was exactly
  // zero as a throughput shortcut — but IEEE 754 says 0 * NaN and 0 * inf
  // are NaN. A poisoned activation multiplied by a zero weight must surface
  // as NaN in the loss, not silently vanish.
  Matrix a(1, 2);
  a(0, 0) = 0.0f;
  a(0, 1) = 1.0f;
  Matrix b(2, 1);
  b(0, 0) = std::numeric_limits<float>::quiet_NaN();
  b(1, 0) = 2.0f;
  const auto expect_nan_on_both_backends = [&] {
    Matrix c(1, 1);
    gemm(GemmMode::kNN, 1.0f, a, b, 0.0f, c);
    EXPECT_TRUE(std::isnan(c(0, 0))) << "reference";
    gemm_tiled(GemmMode::kNN, 1.0f, a, b, 0.0f, c, /*round_bf16=*/false);
    EXPECT_TRUE(std::isnan(c(0, 0))) << "tiled";
  };
  expect_nan_on_both_backends();

  b(0, 0) = std::numeric_limits<float>::infinity();  // 0 * inf is also NaN
  expect_nan_on_both_backends();

  // alpha == 0 remains the BLAS fast path: C = beta*C, operands unread.
  Matrix c = Matrix::full(1, 1, 5.0f);
  gemm(GemmMode::kNN, 0.0f, a, b, 1.0f, c);
  EXPECT_EQ(c(0, 0), 5.0f);
}

}  // namespace
}  // namespace axonn
