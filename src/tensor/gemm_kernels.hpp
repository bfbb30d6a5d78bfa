#pragma once

// Private micro-kernel table behind the tiled backend's runtime ISA dispatch
// (DESIGN.md §13). Each tier lives in its own translation unit compiled with
// exactly the -m flags it needs (see src/tensor/CMakeLists.txt), so a generic
// build still carries AVX2/AVX-512 kernels and picks per host at runtime —
// the DispatchStub idiom. Only gemm_tiled.cpp and the tier TUs include this.
//
// Contracts shared by every tier (gemm_tiled.cpp relies on all of them):
//   - tile1 computes one kTileMR x kTileNR C tile over a k-slab: it fully
//     writes acc[kTileMR * kTileNR] (no caller zeroing) with
//     sum_l a_panel[l*kTileMR + i] * b_panel[l*kTileNR + j] at [i*kTileNR+j].
//   - tile2 (optional, nullptr when a tier has no wide variant) does the same
//     for two adjacent column tiles sharing one A panel: the first tile lands
//     at acc[0..], the second at acc[kTileMR*kTileNR..], so the caller writes
//     both back with the same per-tile code. Pairing never changes any
//     element's accumulation order, so tile2-vs-tile1 coverage of a row is
//     a pure register-reuse optimization.
//   - row computes one row of C over a k-slab straight from a row-major
//     op(B) = B, with no packing: it fully writes acc[0..n) with
//     sum_l a[l] * b[l*ldb + j] at [j], accumulating each element from zero
//     in ascending l with exactly the per-term arithmetic of the tier's
//     tile1 (one FMA per l in the vector tiers, the portable tier's own
//     `+= a * b` expression). The caller then applies C += alpha * acc per
//     slab like the packed path, so a one-row product is bitwise identical
//     to the same row of a packed product.
//   - round_bf16 rounds `count` fp32 values through bf16 (round-to-nearest-
//     even, NaN quieted) from src to dst; src == dst is allowed. Applied to
//     whole packed panels, never to strided operand views.
//   - acc is 64-byte aligned (callers use alignas(64) locals).
//
// Determinism: for a fixed tier, every function here is a pure function of
// its inputs — no tier consults thread ids or global state — which is half of
// the bitwise thread-count-invariance guarantee (the other half is the fixed
// task->lane ownership in gemm_tiled.cpp).

#include <cstddef>

#include "axonn/tensor/gemm_dispatch.hpp"
#include "axonn/tensor/gemm_tiled.hpp"

namespace axonn::detail {

using GemmTile1Fn = void (*)(std::size_t kc, const float* a_panel,
                             const float* b_panel, float* acc);
using GemmTile2Fn = void (*)(std::size_t kc, const float* a_panel,
                             const float* b_panel0, const float* b_panel1,
                             float* acc);
using GemmRowFn = void (*)(std::size_t kc, std::size_t n, const float* a,
                           const float* b, std::size_t ldb, float* acc);
using RoundBf16Fn = void (*)(const float* src, float* dst, std::size_t count);

struct GemmMicroKernels {
  GemmTile1Fn tile1 = nullptr;
  GemmTile2Fn tile2 = nullptr;  ///< nullptr: caller loops tile1
  GemmRowFn row = nullptr;
  RoundBf16Fn round_bf16 = nullptr;
  bool native_bf16 = false;  ///< round_bf16 uses conversion instructions
  const char* name = "";
};

/// Always present; the correctness oracle every wider tier is tested against.
const GemmMicroKernels& portable_gemm_kernels();

#if defined(AXONN_HAVE_AVX2_KERNELS)
const GemmMicroKernels& avx2_gemm_kernels();
#endif
#if defined(AXONN_HAVE_AVX512_KERNELS)
/// round_bf16 is resolved at runtime inside the TU: native VCVTNE2PS2BF16
/// when the host has AVX512-BF16, scalar otherwise.
const GemmMicroKernels& avx512_gemm_kernels();
#endif

/// Table row for active_gemm_isa() — what gemm_tiled.cpp dispatches to.
const GemmMicroKernels& active_gemm_kernels();

/// Table row for an explicit tier, clamped to what this binary carries.
const GemmMicroKernels& gemm_kernels_for(GemmIsa isa);

}  // namespace axonn::detail
