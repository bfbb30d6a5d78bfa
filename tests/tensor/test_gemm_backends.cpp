// The two GEMM backends: gemm_tiled() against the reference kernel across a
// sweep of shapes (including non-tile-multiples and degenerate 1xN / Nx1
// products), all four transpose modes, fp32 and bf16. The tiled backend
// accumulates each k-slab in registers before adding it to C, so it matches
// the reference within an accumulation-order tolerance rather than bitwise.

#include "axonn/tensor/gemm.hpp"
#include "axonn/tensor/gemm_tiled.hpp"

#include <gtest/gtest.h>

#include "axonn/base/rng.hpp"

namespace axonn {
namespace {

struct ShapeCase {
  std::size_t m, n, k;
};

// Tile constants are MR=6, NR=16, MC=96, KC=256: the sweep covers exact
// multiples, off-by-one overhangs in every dimension, sub-tile shapes and
// row/column vectors.
const ShapeCase kShapes[] = {
    {1, 1, 1},      {1, 17, 5},   {5, 1, 9},     {6, 16, 8},
    {7, 17, 3},     {13, 40, 7},  {1, 64, 1},    {96, 16, 256},
    {97, 33, 300},  {200, 50, 3}, {31, 15, 257}, {12, 32, 96},
};

const GemmMode kModes[] = {GemmMode::kNN, GemmMode::kNT, GemmMode::kTN,
                           GemmMode::kTT};

Matrix operand(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  return Matrix::randn(rows, cols, rng);
}

// Operands for op(A) (m x k) and op(B) (k x n) under `mode`.
Matrix make_a(GemmMode mode, const ShapeCase& s, std::uint64_t seed) {
  return gemm_transposes_a(mode) ? operand(s.k, s.m, seed)
                                 : operand(s.m, s.k, seed);
}
Matrix make_b(GemmMode mode, const ShapeCase& s, std::uint64_t seed) {
  return gemm_transposes_b(mode) ? operand(s.n, s.k, seed)
                                 : operand(s.k, s.n, seed);
}

// Accumulation-order tolerance: each output element sums k products of
// N(0,1) draws; regrouping the sum perturbs it by O(k) ulps.
float tolerance(std::size_t k) { return 1e-5f * static_cast<float>(k + 8); }

TEST(GemmBackendTest, TiledMatchesReferenceAcrossShapesAndModesFp32) {
  std::uint64_t seed = 100;
  for (const ShapeCase& s : kShapes) {
    for (GemmMode mode : kModes) {
      const Matrix a = make_a(mode, s, seed++);
      const Matrix b = make_b(mode, s, seed++);
      Matrix c_ref(s.m, s.n), c_tiled(s.m, s.n);
      gemm(mode, 1.0f, a, b, 0.0f, c_ref);
      gemm_tiled(mode, 1.0f, a, b, 0.0f, c_tiled, /*round_bf16=*/false);
      EXPECT_LE(Matrix::max_abs_diff(c_ref, c_tiled), tolerance(s.k))
          << "m=" << s.m << " n=" << s.n << " k=" << s.k << " "
          << to_string(mode);
    }
  }
}

TEST(GemmBackendTest, TiledMatchesReferenceBf16) {
  // Both kernels consume identically bf16-rounded operands (the tiled
  // backend rounds at pack time), so the only difference is regrouped fp32
  // accumulation.
  std::uint64_t seed = 500;
  for (const ShapeCase& s : kShapes) {
    for (GemmMode mode : kModes) {
      const Matrix a = make_a(mode, s, seed++);
      const Matrix b = make_b(mode, s, seed++);
      Matrix c_ref(s.m, s.n), c_tiled(s.m, s.n);
      gemm_bf16(mode, 1.0f, a, b, 0.0f, c_ref);
      gemm_tiled(mode, 1.0f, a, b, 0.0f, c_tiled, /*round_bf16=*/true);
      EXPECT_LE(Matrix::max_abs_diff(c_ref, c_tiled),
                tolerance(s.k) + 1e-2f * static_cast<float>(s.k) / 64.0f)
          << "m=" << s.m << " n=" << s.n << " k=" << s.k << " "
          << to_string(mode);
    }
  }
}

TEST(GemmBackendTest, AlphaBetaSemantics) {
  const ShapeCase s{9, 21, 33};
  for (GemmMode mode : {GemmMode::kNN, GemmMode::kNT}) {
    const Matrix a = make_a(mode, s, 900);
    const Matrix b = make_b(mode, s, 901);
    Matrix c_ref = operand(s.m, s.n, 902);
    Matrix c_tiled = c_ref;
    gemm(mode, 0.5f, a, b, 2.0f, c_ref);
    gemm_tiled(mode, 0.5f, a, b, 2.0f, c_tiled, /*round_bf16=*/false);
    EXPECT_LE(Matrix::max_abs_diff(c_ref, c_tiled), tolerance(s.k));

    // alpha == 0: C = beta * C without reading the operands.
    Matrix c0_ref = operand(s.m, s.n, 903);
    Matrix c0_tiled = c0_ref;
    gemm(mode, 0.0f, a, b, 3.0f, c0_ref);
    gemm_tiled(mode, 0.0f, a, b, 3.0f, c0_tiled, /*round_bf16=*/false);
    EXPECT_EQ(Matrix::max_abs_diff(c0_ref, c0_tiled), 0.0f);
  }
}

}  // namespace
}  // namespace axonn
