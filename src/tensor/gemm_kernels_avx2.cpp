// AVX2+FMA micro-kernel tier. Compiled with -mavx2 -mfma regardless of the
// global arch flags (see src/tensor/CMakeLists.txt); dispatched only when
// __builtin_cpu_supports("avx2") at runtime.
//
// Register budget: one kTileMR x kTileNR (6 x 16) C tile needs 12 ymm
// accumulators + 2 ymm B columns + 1 ymm A broadcast = 15 of the 16
// architectural ymm registers, so there is no room for a two-tile variant —
// tile2 stays nullptr and the caller loops tile1.

#include "gemm_kernels.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cmath>

#include "axonn/tensor/bf16.hpp"

namespace axonn::detail {

namespace {

void tile1_avx2(std::size_t kc, const float* __restrict a_panel,
                const float* __restrict b_panel, float* __restrict acc) {
  static_assert(kTileMR == 6 && kTileNR == 16,
                "AVX2 kernel is specialized for the 6x16 tile");
  __m256 c_lo[kTileMR];
  __m256 c_hi[kTileMR];
  for (std::size_t i = 0; i < kTileMR; ++i) {
    c_lo[i] = _mm256_setzero_ps();
    c_hi[i] = _mm256_setzero_ps();
  }
  for (std::size_t l = 0; l < kc; ++l) {
    const float* a = a_panel + l * kTileMR;
    const float* b = b_panel + l * kTileNR;
    const __m256 b_lo = _mm256_loadu_ps(b);
    const __m256 b_hi = _mm256_loadu_ps(b + 8);
    for (std::size_t i = 0; i < kTileMR; ++i) {
      const __m256 av = _mm256_broadcast_ss(a + i);
      c_lo[i] = _mm256_fmadd_ps(av, b_lo, c_lo[i]);
      c_hi[i] = _mm256_fmadd_ps(av, b_hi, c_hi[i]);
    }
  }
  for (std::size_t i = 0; i < kTileMR; ++i) {
    _mm256_store_ps(acc + i * kTileNR, c_lo[i]);
    _mm256_store_ps(acc + i * kTileNR + 8, c_hi[i]);
  }
}

// One row of C, 32 columns (4 ymm accumulators) at a time, then 8, then a
// scalar std::fma tail: each element is the same FMA chain as in tile1.
void row_avx2(std::size_t kc, std::size_t n, const float* __restrict a,
              const float* __restrict b, std::size_t ldb,
              float* __restrict acc) {
  std::size_t j = 0;
  for (; j + 32 <= n; j += 32) {
    __m256 c[4];
    for (auto& v : c) v = _mm256_setzero_ps();
    for (std::size_t l = 0; l < kc; ++l) {
      const __m256 av = _mm256_broadcast_ss(a + l);
      const float* b_row = b + l * ldb + j;
      for (std::size_t v = 0; v < 4; ++v) {
        c[v] = _mm256_fmadd_ps(av, _mm256_loadu_ps(b_row + 8 * v), c[v]);
      }
    }
    for (std::size_t v = 0; v < 4; ++v) _mm256_storeu_ps(acc + j + 8 * v, c[v]);
  }
  for (; j + 8 <= n; j += 8) {
    __m256 c = _mm256_setzero_ps();
    for (std::size_t l = 0; l < kc; ++l) {
      c = _mm256_fmadd_ps(_mm256_broadcast_ss(a + l),
                          _mm256_loadu_ps(b + l * ldb + j), c);
    }
    _mm256_storeu_ps(acc + j, c);
  }
  for (; j < n; ++j) {
    float c = 0.0f;
    for (std::size_t l = 0; l < kc; ++l) c = std::fma(a[l], b[l * ldb + j], c);
    acc[j] = c;
  }
}

// AVX2 has no bf16 conversion instructions; the rounding itself is integer
// bit arithmetic, which the compiler vectorizes fine from the scalar form.
void round_bf16_avx2(const float* src, float* dst, std::size_t count) {
  for (std::size_t x = 0; x < count; ++x) dst[x] = bf16_round(src[x]);
}

}  // namespace

const GemmMicroKernels& avx2_gemm_kernels() {
  static const GemmMicroKernels kernels{&tile1_avx2, nullptr, &row_avx2,
                                        &round_bf16_avx2,
                                        /*native_bf16=*/false, "avx2"};
  return kernels;
}

}  // namespace axonn::detail

#else  // the TU was compiled without -mavx2 -mfma somehow; keep the link sane

namespace axonn::detail {
const GemmMicroKernels& avx2_gemm_kernels() { return portable_gemm_kernels(); }
}  // namespace axonn::detail

#endif
