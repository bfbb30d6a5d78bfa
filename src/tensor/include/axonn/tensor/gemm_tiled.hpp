#pragma once

// The `tiled` GEMM backend: packed panels + a register-blocked micro-kernel.
//
// The reference kernel in gemm.cpp streams op(B) rows straight out of the
// operand matrix, so every transpose mode pays a different (sometimes
// strided) access pattern and no value is ever reused from registers. This
// backend does what a real BLAS does instead (the paper's §V-C tuning story
// only has teeth when genuinely different kernels exist):
//
//   1. op(B) is packed once into column panels of kTileNR contiguous
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
// PackedB is exposed so weight matrices can be packed once and reused across
// every GEMM that consumes them (TensorParallelFC packs W per layer and
// invalidates on optimizer step — the pack-once weight panel cache).

#include <cstddef>
#include <vector>

#include "axonn/base/arena.hpp"
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

/// op(B) packed into cache-blocked panels, ready for the micro-kernel.
/// Layout: for each k-slab kb (kBlockK rows of op(B)), for each column tile
/// jt (kTileNR columns, zero-padded past n), a contiguous panel of
/// kc * kTileNR floats stored l-major: panel[l * kTileNR + j].
class PackedB {
 public:
  PackedB() = default;

  std::size_t k() const { return k_; }
  std::size_t n() const { return n_; }
  bool empty() const { return data_.empty(); }
  bool rounded_bf16() const { return rounded_bf16_; }
  void clear() { *this = PackedB(); }

  /// Number of k-slabs and kTileNR column tiles.
  std::size_t k_blocks() const;
  std::size_t n_tiles() const;
  /// Rows in k-slab `kb` (kBlockK except possibly the last).
  std::size_t k_block_rows(std::size_t kb) const;
  /// The (kb, jt) micro-panel: k_block_rows(kb) * kTileNR floats.
  const float* panel(std::size_t kb, std::size_t jt) const;

 private:
  friend PackedB pack_b(const Matrix& b, bool transpose, bool round_bf16);

  std::size_t k_ = 0;
  std::size_t n_ = 0;
  std::size_t padded_n_ = 0;
  bool rounded_bf16_ = false;
  mem::TrackedVector<float> data_;  ///< charged to mem::Tag::kPackedPanels
};

/// Packs op(B) (= B or B^T) into panels. O(k*n) — one pass over the operand.
PackedB pack_b(const Matrix& b, bool transpose, bool round_bf16);

/// C = alpha * op(A) x packed-op(B) + beta * C with op(B) pre-packed.
/// `trans_a` selects op(A) = A^T. Shapes are validated against the pack.
void gemm_tiled_packed(bool trans_a, float alpha, const Matrix& a,
                       const PackedB& packed_b, float beta, Matrix& c,
                       bool round_bf16);

/// Convenience form that packs op(B) internally (pack cost included — the
/// per-call cost when no reusable pack exists).
void gemm_tiled(GemmMode mode, float alpha, const Matrix& a, const Matrix& b,
                float beta, Matrix& c, bool round_bf16);

}  // namespace axonn
