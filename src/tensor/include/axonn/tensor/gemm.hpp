#pragma once

// General matrix multiply in the three transpose modes transformers use.
//
// Every FC layer performs one GEMM forward (NN: I x W) and two backward
// (NT: dL/dO x W^T, and TN: I^T x dL/dO). BLAS libraries optimize these
// modes unevenly — the paper found a TN kernel on MI250X running at 6% of
// peak — which is why AxoNN auto-tunes the mode per matmul (§V-C). The tiled
// backend packs operands, which resolves transposes before the kernel runs,
// so the modes cost the same here; the §V-C choice is modelled in the
// simulator (sim::SimOptions::kernel_tuning).

#include <cstdint>
#include <string>

#include "axonn/tensor/gemm_dispatch.hpp"
#include "axonn/tensor/matrix.hpp"

namespace axonn {

/// Which operands are logically transposed: C = op(A) x op(B).
enum class GemmMode {
  kNN,  ///< C = A x B
  kNT,  ///< C = A x B^T
  kTN,  ///< C = A^T x B
  kTT,  ///< C = A^T x B^T (unused by transformers; completes the set)
};

const char* to_string(GemmMode mode);

/// True when op(A) (resp. op(B)) is the transpose of the stored operand.
inline bool gemm_transposes_a(GemmMode mode) {
  return mode == GemmMode::kTN || mode == GemmMode::kTT;
}
inline bool gemm_transposes_b(GemmMode mode) {
  return mode == GemmMode::kNT || mode == GemmMode::kTT;
}

/// Which kernel implementation computes the product. `kReference` is the
/// original scalar i-l-j loop behind gemm()/gemm_bf16() (kept as the
/// numerical baseline, bit-identical to the seed). `kTiled` is gemm_tiled():
/// it packs op(A) and op(B) into cache-blocked panels and runs a
/// register-blocked micro-kernel (see gemm_tiled.hpp) — same math, different
/// accumulation grouping, so results agree within accumulation-order
/// tolerance only. Callers name the kernel by calling its entry point.
enum class GemmBackend {
  kReference,
  kTiled,
};

const char* to_string(GemmBackend backend);

/// C = alpha * op(A) x op(B) + beta * C. Shapes are validated against the
/// mode. Accumulation is fp32 regardless of input rounding.
void gemm(GemmMode mode, float alpha, const Matrix& a, const Matrix& b,
          float beta, Matrix& c);

/// Convenience allocating form with alpha=1, beta=0.
Matrix gemm(GemmMode mode, const Matrix& a, const Matrix& b);

/// Mixed-precision GEMM: operands are rounded through bf16 element-by-element
/// as they are consumed, accumulation stays fp32 — the numerical contract of
/// a bf16 tensor-core GEMM.
void gemm_bf16(GemmMode mode, float alpha, const Matrix& a, const Matrix& b,
               float beta, Matrix& c);

Matrix gemm_bf16(GemmMode mode, const Matrix& a, const Matrix& b);

/// Output rows/cols and inner dimension of op(A) x op(B) under `mode`.
struct GemmShape {
  std::size_t m = 0;  ///< rows of C
  std::size_t n = 0;  ///< cols of C
  std::size_t k = 0;  ///< contraction length
};

/// Computes the (m, n, k) of a GEMM; throws if the operand shapes are
/// incompatible under the mode.
GemmShape gemm_shape(GemmMode mode, const Matrix& a, const Matrix& b);

/// 2*m*n*k — the flop count convention used throughout the paper.
inline std::uint64_t gemm_flops(const GemmShape& s) {
  return 2ull * s.m * s.n * s.k;
}

// ---------------------------------------------------------------------------
// Per-call dispatch statistics
// ---------------------------------------------------------------------------

/// What one GEMM dispatch actually ran, so a trace can attribute checksum
/// (ABFT) overhead to the kernel it guarded. Every entry point — gemm(),
/// gemm_bf16() and gemm_tiled() — records one of these per call on the
/// calling thread.
struct GemmStats {
  GemmBackend backend = GemmBackend::kReference;
  GemmMode mode = GemmMode::kNN;
  GemmShape shape;
  std::uint64_t flops = 0;  ///< gemm_flops(shape)
  bool bf16 = false;        ///< operands rounded through bf16
  /// Micro-kernel tier the tiled backend dispatched to (kPortable for the
  /// reference backend, which has no ISA-specific kernels).
  GemmIsa isa = GemmIsa::kPortable;
  /// Intra-rank thread budget in effect at dispatch (gemm_threads(); the
  /// tiled backend may use fewer lanes when the task grid is smaller).
  int threads = 1;
};

/// Stats of the most recent GEMM dispatched on the calling thread.
/// Meaningless until gemm_dispatch_count() > 0.
const GemmStats& last_gemm_stats();

/// GEMMs dispatched on the calling thread since start/reset.
std::uint64_t gemm_dispatch_count();

/// Cumulative gemm_flops over those dispatches.
std::uint64_t gemm_dispatch_flops();

/// Zeroes the calling thread's dispatch statistics.
void reset_gemm_dispatch_stats();

namespace detail {

/// Records one dispatch in the calling thread's statistics. Each kernel entry
/// point calls it once per call (the allocating forms only delegate), so
/// nothing double-counts.
void record_gemm_dispatch(GemmBackend backend, GemmMode mode,
                          const GemmShape& shape, bool bf16,
                          GemmIsa isa = GemmIsa::kPortable, int threads = 1);

}  // namespace detail

}  // namespace axonn
