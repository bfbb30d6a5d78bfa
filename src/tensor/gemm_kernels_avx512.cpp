// AVX-512 micro-kernel tier. Compiled with its own -mavx512* flags (see
// src/tensor/CMakeLists.txt); dispatched only when the host reports
// avx512f/bw/vl at runtime.
//
// With 32 zmm registers the profitable shape is a paired-column-tile kernel:
// tile2 computes a 6 x 32 block of C (two adjacent kTileNR=16 packed-B
// panels sharing one A panel) in 12 zmm accumulators + 2 zmm B rows + the
// A broadcast — the B loads amortize across twice the FMAs of the 6 x 16
// tile. tile1 covers the odd trailing column tile.
//
// bf16 rounding: when both the compiler (-mavx512bf16) and the host
// (avx512bf16 cpuid) have it, packed panels round through VCVTNE2PS2BF16 —
// 32 values per instruction — and widen back by a 16-bit shift. The
// instruction rounds to nearest-even and quiets NaNs exactly like the scalar
// bf16_round, but flushes denormal *inputs* to zero (hardware semantics,
// independent of MXCSR). Trainable-magnitude values round identically;
// cross-tier comparisons are tolerance-based for this reason, bitwise
// guarantees hold only within a tier.

#include "gemm_kernels.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__)

#include <immintrin.h>

#include "axonn/tensor/bf16.hpp"

namespace axonn::detail {

namespace {

void tile1_avx512(std::size_t kc, const float* __restrict a_panel,
                  const float* __restrict b_panel, float* __restrict acc) {
  static_assert(kTileMR == 6 && kTileNR == 16,
                "AVX-512 kernel is specialized for the 6x16 tile");
  __m512 c[kTileMR];
  for (std::size_t i = 0; i < kTileMR; ++i) c[i] = _mm512_setzero_ps();
  for (std::size_t l = 0; l < kc; ++l) {
    const float* a = a_panel + l * kTileMR;
    const __m512 b = _mm512_loadu_ps(b_panel + l * kTileNR);
    for (std::size_t i = 0; i < kTileMR; ++i) {
      c[i] = _mm512_fmadd_ps(_mm512_set1_ps(a[i]), b, c[i]);
    }
  }
  for (std::size_t i = 0; i < kTileMR; ++i) {
    _mm512_store_ps(acc + i * kTileNR, c[i]);
  }
}

void tile2_avx512(std::size_t kc, const float* __restrict a_panel,
                  const float* __restrict b_panel0,
                  const float* __restrict b_panel1, float* __restrict acc) {
  __m512 c0[kTileMR];
  __m512 c1[kTileMR];
  for (std::size_t i = 0; i < kTileMR; ++i) {
    c0[i] = _mm512_setzero_ps();
    c1[i] = _mm512_setzero_ps();
  }
  for (std::size_t l = 0; l < kc; ++l) {
    const float* a = a_panel + l * kTileMR;
    const __m512 b0 = _mm512_loadu_ps(b_panel0 + l * kTileNR);
    const __m512 b1 = _mm512_loadu_ps(b_panel1 + l * kTileNR);
    for (std::size_t i = 0; i < kTileMR; ++i) {
      const __m512 av = _mm512_set1_ps(a[i]);
      c0[i] = _mm512_fmadd_ps(av, b0, c0[i]);
      c1[i] = _mm512_fmadd_ps(av, b1, c1[i]);
    }
  }
  for (std::size_t i = 0; i < kTileMR; ++i) {
    _mm512_store_ps(acc + i * kTileNR, c0[i]);
    _mm512_store_ps(acc + (kTileMR + i) * kTileNR, c1[i]);
  }
}

// One row of C, 128 columns (8 zmm accumulators) at a time, then 16 at a
// time with a masked load/store for the last partial vector: each element
// is the same FMA chain as in tile1.
void row_avx512(std::size_t kc, std::size_t n, const float* __restrict a,
                const float* __restrict b, std::size_t ldb,
                float* __restrict acc) {
  std::size_t j = 0;
  for (; j + 128 <= n; j += 128) {
    __m512 c[8];
    for (auto& v : c) v = _mm512_setzero_ps();
    for (std::size_t l = 0; l < kc; ++l) {
      const __m512 av = _mm512_set1_ps(a[l]);
      const float* b_row = b + l * ldb + j;
      for (std::size_t v = 0; v < 8; ++v) {
        c[v] = _mm512_fmadd_ps(av, _mm512_loadu_ps(b_row + 16 * v), c[v]);
      }
    }
    for (std::size_t v = 0; v < 8; ++v) {
      _mm512_storeu_ps(acc + j + 16 * v, c[v]);
    }
  }
  for (; j < n; j += 16) {
    const __mmask16 mask =
        n - j >= 16 ? __mmask16(0xFFFF) : __mmask16((1u << (n - j)) - 1);
    __m512 c = _mm512_setzero_ps();
    for (std::size_t l = 0; l < kc; ++l) {
      c = _mm512_fmadd_ps(_mm512_set1_ps(a[l]),
                          _mm512_maskz_loadu_ps(mask, b + l * ldb + j), c);
    }
    _mm512_mask_storeu_ps(acc + j, mask, c);
  }
}

void round_bf16_scalar(const float* src, float* dst, std::size_t count) {
  for (std::size_t x = 0; x < count; ++x) dst[x] = bf16_round(src[x]);
}

#if defined(__AVX512BF16__)

void round_bf16_native(const float* src, float* dst, std::size_t count) {
  std::size_t x = 0;
  for (; x + 32 <= count; x += 32) {
    // Two 16-float vectors -> 32 bf16 lanes (cvtne2 packs its *second*
    // operand into the low 16 lanes), then widen each lane back to fp32 by
    // zero-extending to 32 bits and shifting into the exponent/mantissa
    // high half.
    const __m512 lo = _mm512_loadu_ps(src + x);
    const __m512 hi = _mm512_loadu_ps(src + x + 16);
    const __m512i bits = (__m512i)_mm512_cvtne2ps_pbh(hi, lo);
    const __m512i w_lo = _mm512_slli_epi32(
        _mm512_cvtepu16_epi32(_mm512_castsi512_si256(bits)), 16);
    const __m512i w_hi = _mm512_slli_epi32(
        _mm512_cvtepu16_epi32(_mm512_extracti64x4_epi64(bits, 1)), 16);
    _mm512_storeu_ps(dst + x, _mm512_castsi512_ps(w_lo));
    _mm512_storeu_ps(dst + x + 16, _mm512_castsi512_ps(w_hi));
  }
  for (; x < count; ++x) dst[x] = bf16_round(src[x]);
}

#endif  // __AVX512BF16__

RoundBf16Fn pick_round_bf16(bool* native) {
#if defined(__AVX512BF16__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512bf16")) {
    *native = true;
    return &round_bf16_native;
  }
#endif
  *native = false;
  return &round_bf16_scalar;
}

}  // namespace

const GemmMicroKernels& avx512_gemm_kernels() {
  static const GemmMicroKernels kernels = [] {
    GemmMicroKernels k;
    k.tile1 = &tile1_avx512;
    k.tile2 = &tile2_avx512;
    k.row = &row_avx512;
    k.round_bf16 = pick_round_bf16(&k.native_bf16);
    k.name = "avx512";
    return k;
  }();
  return kernels;
}

}  // namespace axonn::detail

#else  // compiled without AVX-512 flags; keep the link sane

namespace axonn::detail {
const GemmMicroKernels& avx512_gemm_kernels() {
  return portable_gemm_kernels();
}
}  // namespace axonn::detail

#endif
