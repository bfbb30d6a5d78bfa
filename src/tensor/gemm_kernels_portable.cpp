// Portable micro-kernel tier: no intrinsics, fixed trip counts the compiler
// unrolls and auto-vectorizes for whatever the build targets. This is the
// numerical oracle — the wider tiers must agree with it within accumulation-
// order tolerance — and the tier AXONN_GEMM_ISA=portable forces so CI
// exercises it on every host. It also hosts gemm_kernels_for()/
// active_gemm_kernels(), the one place that sees every compiled tier.

#include "gemm_kernels.hpp"

#include "axonn/tensor/bf16.hpp"

namespace axonn::detail {

namespace {

// Identical loop nest to the pre-dispatch micro_kernel (PR 3): j innermost
// over the contiguous packed-B row becomes broadcast-FMA vector code.
void tile1_portable(std::size_t kc, const float* __restrict a_panel,
                    const float* __restrict b_panel, float* __restrict acc) {
  float local[kTileMR * kTileNR] = {};
  for (std::size_t l = 0; l < kc; ++l) {
    const float* a = a_panel + l * kTileMR;
    const float* b = b_panel + l * kTileNR;
    for (std::size_t i = 0; i < kTileMR; ++i) {
      const float av = a[i];
      for (std::size_t j = 0; j < kTileNR; ++j) {
        local[i * kTileNR + j] += av * b[j];
      }
    }
  }
  for (std::size_t x = 0; x < kTileMR * kTileNR; ++x) acc[x] = local[x];
}

// One row of C read from B in place. Each term is tile1's `+= av * b[j]`
// expression in the same TU, so the build contracts it (or not) alike.
void row_portable(std::size_t kc, std::size_t n, const float* __restrict a,
                  const float* __restrict b, std::size_t ldb,
                  float* __restrict acc) {
  for (std::size_t j = 0; j < n; ++j) acc[j] = 0.0f;
  for (std::size_t l = 0; l < kc; ++l) {
    const float av = a[l];
    const float* b_row = b + l * ldb;
    for (std::size_t j = 0; j < n; ++j) acc[j] += av * b_row[j];
  }
}

void round_bf16_portable(const float* src, float* dst, std::size_t count) {
  for (std::size_t x = 0; x < count; ++x) dst[x] = bf16_round(src[x]);
}

}  // namespace

const GemmMicroKernels& portable_gemm_kernels() {
  static const GemmMicroKernels kernels{
      &tile1_portable, nullptr, &row_portable, &round_bf16_portable,
      /*native_bf16=*/false, "portable"};
  return kernels;
}

const GemmMicroKernels& gemm_kernels_for(GemmIsa isa) {
  switch (isa) {
#if defined(AXONN_HAVE_AVX512_KERNELS)
    case GemmIsa::kAvx512:
      return avx512_gemm_kernels();
#endif
#if defined(AXONN_HAVE_AVX2_KERNELS)
    case GemmIsa::kAvx2:
      return avx2_gemm_kernels();
#endif
    default:
      return portable_gemm_kernels();
  }
}

const GemmMicroKernels& active_gemm_kernels() {
  return gemm_kernels_for(active_gemm_isa());
}

}  // namespace axonn::detail
