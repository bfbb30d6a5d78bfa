#pragma once

// Runtime ISA dispatch and the intra-rank GEMM thread budget (DESIGN.md §13).
//
// The tiled backend's micro-kernel is a DispatchStub-style function table
// resolved once per process: the build compiles a portable tier always, and
// AVX2 / AVX-512 tiers in their own translation units with the matching
// -m flags when the compiler supports them; at runtime cpuid
// (__builtin_cpu_supports) picks the widest tier the host executes. The
// portable tier is the correctness oracle — every wider tier must agree with
// it within accumulation-order tolerance, and AXONN_GEMM_ISA=portable forces
// it so CI exercises the fallback on any host.
//
// The thread budget is deliberately per-rank and conservative: ranks are
// already threads in this runtime, and each rank can own comm-progress lane
// workers (§12), so the default is 1 (serial — bit-identical to the
// pre-threaded backend by construction) and parallelism is opted into via
// AXONN_GEMM_THREADS, set_gemm_threads(), WorldOptions::gemm_threads (which
// divides the host's cores by the rank count) or a GemmThreadScope. Results
// are bitwise identical at any thread count (see gemm_tiled.hpp), so the knob
// is pure performance.

#include <cstddef>

namespace axonn {

/// Micro-kernel ISA tiers, narrowest first. Ordering is meaningful:
/// a tier can always be forced *down*, never above what the host + build
/// support.
enum class GemmIsa {
  kPortable,  ///< scalar/auto-vectorized kernels; compiled everywhere
  kAvx2,      ///< 256-bit FMA register tiles
  kAvx512,    ///< 512-bit register tiles, 6x32 C tile, native bf16 rounding
};

const char* to_string(GemmIsa isa);

/// Widest tier both compiled into this binary and executable on this host
/// (cpuid). Cached after the first call.
GemmIsa detected_gemm_isa();

/// The tier the tiled backend dispatches to: detected_gemm_isa() clamped by
/// the AXONN_GEMM_ISA override (values: portable | avx2 | avx512; unknown
/// values are ignored with a warning) and by force_gemm_isa(). Cached;
/// force_gemm_isa() invalidates.
GemmIsa active_gemm_isa();

/// Test hook: clamps dispatch to min(tier, detected). Affects subsequent
/// packs/kernels process-wide; call reset_gemm_isa() to restore the
/// env-resolved default. Not thread-safe against concurrent GEMMs — flip it
/// only between calls (tests do).
void force_gemm_isa(GemmIsa isa);
void reset_gemm_isa();

/// True when the active tier rounds bf16 with native conversion instructions
/// (AVX512-BF16 VCVTNE2PS2BF16) instead of the scalar round-to-nearest-even.
/// The native path flushes denormal inputs to zero (hardware semantics);
/// everything at trainable magnitudes rounds identically.
bool gemm_native_bf16();

// ---------------------------------------------------------------------------
// Intra-rank GEMM thread budget
// ---------------------------------------------------------------------------

/// Threads the tiled backend may use for the calling thread's next GEMM:
/// the innermost of (GemmThreadScope on this thread) > set_gemm_threads() >
/// AXONN_GEMM_THREADS > 1. Always >= 1.
int gemm_threads();

/// Sets the process-global budget (clamped to >= 1). 0 restores the
/// AXONN_GEMM_THREADS / default-1 resolution.
void set_gemm_threads(int threads);

/// Per-rank budget for a world of `ranks` compute threads on this host:
/// max(1, (hardware_concurrency - 1) / ranks). The reserved core keeps the
/// comm-progress lanes (§12) from queueing behind a fully-subscribed GEMM —
/// the "never oversubscribe" rule WorldOptions::gemm_threads = -1 applies.
int auto_gemm_threads(int ranks);

/// RAII thread-local override: the budget seen by gemm_threads() on this
/// thread while the scope lives. threads <= 0 leaves the ambient budget in
/// effect (a no-op scope), so call sites can pass an optional knob through
/// unconditionally.
class GemmThreadScope {
 public:
  explicit GemmThreadScope(int threads);
  ~GemmThreadScope();
  GemmThreadScope(const GemmThreadScope&) = delete;
  GemmThreadScope& operator=(const GemmThreadScope&) = delete;

 private:
  int previous_;
};

}  // namespace axonn
