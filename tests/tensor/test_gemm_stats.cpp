// Per-call GEMM dispatch statistics: every entry point — gemm(),
// gemm_bf16() and gemm_tiled() — records (backend, mode, shape, flops, bf16)
// exactly once per call on the calling thread.

#include <gtest/gtest.h>

#include "axonn/tensor/gemm.hpp"
#include "axonn/tensor/gemm_tiled.hpp"

namespace axonn {
namespace {

Matrix filled(std::size_t rows, std::size_t cols, float scale) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      m(i, j) = scale * (0.25f + static_cast<float>((i * 31 + j * 7) % 13) -
                         6.0f * static_cast<float>((i + j) % 2));
    }
  }
  return m;
}

TEST(GemmStatsTest, PlainGemmRecordsReferenceDispatch) {
  const Matrix a = filled(5, 7, 0.01f);
  const Matrix b = filled(7, 3, 0.02f);
  reset_gemm_dispatch_stats();
  const Matrix c = gemm(GemmMode::kNN, a, b);
  EXPECT_EQ(c.rows(), 5u);
  EXPECT_EQ(gemm_dispatch_count(), 1u);
  const GemmStats& stats = last_gemm_stats();
  EXPECT_EQ(stats.backend, GemmBackend::kReference);
  EXPECT_EQ(stats.mode, GemmMode::kNN);
  EXPECT_EQ(stats.shape.m, 5u);
  EXPECT_EQ(stats.shape.n, 3u);
  EXPECT_EQ(stats.shape.k, 7u);
  EXPECT_EQ(stats.flops, 2ull * 5 * 3 * 7);
  EXPECT_FALSE(stats.bf16);
  EXPECT_EQ(gemm_dispatch_flops(), stats.flops);
}

TEST(GemmStatsTest, Bf16AndTransposeModesAreRecorded) {
  const Matrix a = filled(4, 6, 0.01f);  // op(A) = A^T under kTN
  const Matrix b = filled(4, 5, 0.02f);
  reset_gemm_dispatch_stats();
  Matrix c(6, 5);
  gemm_bf16(GemmMode::kTN, 1.0f, a, b, 0.0f, c);
  const GemmStats& stats = last_gemm_stats();
  EXPECT_EQ(stats.mode, GemmMode::kTN);
  EXPECT_EQ(stats.shape.m, 6u);
  EXPECT_EQ(stats.shape.n, 5u);
  EXPECT_EQ(stats.shape.k, 4u);
  EXPECT_TRUE(stats.bf16);
}

TEST(GemmStatsTest, TiledDispatchCountsOnceAtTheOutermostFrame) {
  // gemm_tiled packs op(B) and runs the packed kernel — one logical GEMM,
  // so one recorded dispatch, attributed to the tiled backend with the
  // caller's mode.
  const Matrix a = filled(9, 17, 0.01f);
  const Matrix b = filled(4, 17, 0.02f);  // op(B) = B^T under kNT
  reset_gemm_dispatch_stats();
  Matrix c(9, 4);
  gemm_tiled(GemmMode::kNT, 1.0f, a, b, 0.0f, c, /*round_bf16=*/false);
  EXPECT_EQ(gemm_dispatch_count(), 1u);
  const GemmStats& stats = last_gemm_stats();
  EXPECT_EQ(stats.backend, GemmBackend::kTiled);
  EXPECT_EQ(stats.mode, GemmMode::kNT);
  EXPECT_EQ(stats.shape.k, 17u);
  EXPECT_EQ(stats.flops, 2ull * 9 * 4 * 17);
}

TEST(GemmStatsTest, FlopsAccumulateAndResetClears) {
  const Matrix a = filled(5, 7, 0.01f);
  const Matrix b = filled(7, 3, 0.02f);
  reset_gemm_dispatch_stats();
  (void)gemm(GemmMode::kNN, a, b);
  (void)gemm(GemmMode::kNN, a, b);
  EXPECT_EQ(gemm_dispatch_count(), 2u);
  EXPECT_EQ(gemm_dispatch_flops(), 2u * (2ull * 5 * 3 * 7));
  reset_gemm_dispatch_stats();
  EXPECT_EQ(gemm_dispatch_count(), 0u);
  EXPECT_EQ(gemm_dispatch_flops(), 0u);
}

}  // namespace
}  // namespace axonn
