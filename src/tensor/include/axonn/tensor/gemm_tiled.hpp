#pragma once

// The `tiled` GEMM backend: packed panels + a register-blocked micro-kernel.
//
// The reference kernel in gemm.cpp streams op(B) rows straight out of the
// operand matrix, so every transpose mode pays a different (sometimes
// strided) access pattern and no value is ever reused from registers. This
// backend does what a real BLAS does instead (the paper's §V-C tuning story
// only has teeth when genuinely different kernels exist):
//
//   1. op(B) is packed per call into column panels of kTileNR contiguous
//      columns, blocked over the contraction dimension in kBlockK slabs.
//      Transposition is resolved at pack time, so NN/NT/TN/TT all run the
//      identical micro-kernel. The bf16 path rounds elements as they are
//      packed — the same values the reference bf16 kernel consumes.
//   2. op(A) is packed per (kBlockM x kBlockK) block into row panels of
//      kTileMR contiguous rows, zero-padded at the edges so the micro-kernel
//      never branches on tile bounds.
//   3. The micro-kernel accumulates a kTileMR x kTileNR tile of C in local
//      fp32 accumulators over one k-slab; the innermost loop runs over the
//      kTileNR contiguous packed-B columns, which the compiler
//      auto-vectorizes into broadcast-FMA vector code.
//
// Because each k-slab is accumulated in registers before being added to C,
// the floating-point grouping differs from the reference kernel: results
// match within accumulation-order tolerance, not bitwise.
//
// A one-row fp32 NN product (a decode step's FC and LM-head GEMMs) skips
// both packs: it streams B rows straight into the tier's row kernel, whose
// per-element arithmetic is the micro-kernel's, so the result is bitwise the
// packed path's.
//
// The op(B) pack is a transient of the call: nothing outlives gemm_tiled(),
// so the packed-panel footprint is one op(B) plus the per-lane A blocks.

#include <cstddef>

#include "axonn/tensor/gemm.hpp"
#include "axonn/tensor/matrix.hpp"

namespace axonn {

/// Micro-kernel tile: kTileMR rows of C by kTileNR columns, accumulated in
/// registers (6 x 16 fp32 = 6 AVX-512 or 12 AVX2 accumulators).
inline constexpr std::size_t kTileMR = 6;
inline constexpr std::size_t kTileNR = 16;
/// Cache blocking: op(A) blocks of kBlockM x kBlockK are packed so the
/// working set (A block + one B panel) stays in cache across micro-kernels.
inline constexpr std::size_t kBlockM = 96;   // multiple of kTileMR
inline constexpr std::size_t kBlockK = 256;

/// C = alpha * op(A) x op(B) + beta * C on the tiled kernel; op(B) is
/// packed (and, with round_bf16, rounded) once per call. An fp32 NN product
/// with one row of A reads B in place instead, bitwise the same row.
void gemm_tiled(GemmMode mode, float alpha, const Matrix& a, const Matrix& b,
                float beta, Matrix& c, bool round_bf16);

}  // namespace axonn
