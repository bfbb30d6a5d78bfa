#include "axonn/tensor/gemm_tiled.hpp"

#include <algorithm>
#include <vector>

#include "axonn/base/arena.hpp"
#include "axonn/base/error.hpp"
#include "axonn/base/metrics.hpp"
#include "axonn/base/worker_pool.hpp"
#include "axonn/tensor/gemm_dispatch.hpp"
#include "gemm_kernels.hpp"

namespace axonn {

namespace {

inline std::size_t ceil_div(std::size_t a, std::size_t b) {
  return (a + b - 1) / b;
}

// op(B) packed into cache-blocked panels, ready for the micro-kernel.
// Layout: for each k-slab kb (kBlockK rows of op(B)), for each column tile
// jt (kTileNR columns, zero-padded past n), a contiguous panel of
// kc * kTileNR floats stored l-major: panel[l * kTileNR + j].
struct PackedB {
  std::size_t k = 0;
  std::size_t n = 0;
  std::size_t padded_n = 0;
  mem::TrackedVector<float> data;  ///< charged to mem::Tag::kPackedPanels

  std::size_t k_blocks() const { return ceil_div(k, kBlockK); }
  std::size_t n_tiles() const { return padded_n / kTileNR; }
  /// Rows in k-slab `kb` (kBlockK except possibly the last).
  std::size_t k_block_rows(std::size_t kb) const {
    return std::min(kBlockK, k - kb * kBlockK);
  }
  /// The (kb, jt) micro-panel: k_block_rows(kb) * kTileNR floats. Every slab
  /// before kb is full, so its rows contribute kBlockK * padded_n.
  const float* panel(std::size_t kb, std::size_t jt) const {
    return data.data() + kb * kBlockK * padded_n +
           jt * (k_block_rows(kb) * kTileNR);
  }
};

// Threaded task grid (DESIGN.md §13): a task is one (kBlockM row block,
// kGroupNTiles column-tile group) rectangle of C. The grid is a pure function
// of the problem shape — never of the thread count — and task t is owned by
// lane t % lanes, so which lane computes a task changes with the budget but
// the work inside it (and the kb-ascending order of += into its disjoint C
// rectangle) never does: output is bitwise identical at any thread count.
// 8 tiles x kTileNR = 128 columns per group keeps A-pack duplication across
// tasks under ~1% of the FMA work while giving 512^2 x 512 a 6x4 = 24-task
// grid — enough slack to balance 4..8 lanes.
constexpr std::size_t kGroupNTiles = 8;

// gemm.pool.* registry entries recorded per threaded call; the spawn/park
// counters live with the WorkerTeam in src/base.
obs::metrics::Counter& tiles_counter() {
  static obs::metrics::Counter c("gemm.pool.tiles");
  return c;
}
obs::metrics::Histogram& imbalance_hist() {
  static obs::metrics::Histogram h("gemm.pool.imbalance_pct");
  return h;
}

// Packs op(A)[i0..i0+mc) x [l0..l0+kc) into row panels of kTileMR, each
// stored l-major (panel[l * kTileMR + i]) and zero-padded past mc so the
// micro-kernel runs full tiles unconditionally. bf16 rounding is applied by
// the caller to the packed buffer afterwards (contiguous, so the dispatched
// round_bf16 kernel vectorizes; the padding zeros round to zero).
void pack_a_block(const Matrix& a, bool trans_a, std::size_t i0,
                  std::size_t mc, std::size_t l0, std::size_t kc, float* buf) {
  const std::size_t m_tiles = ceil_div(mc, kTileMR);
  for (std::size_t it = 0; it < m_tiles; ++it) {
    const std::size_t i_base = i0 + it * kTileMR;
    const std::size_t mr = std::min(kTileMR, i0 + mc - i_base);
    float* panel = buf + it * (kc * kTileMR);
    for (std::size_t l = 0; l < kc; ++l) {
      float* out = panel + l * kTileMR;
      if (!trans_a) {
        for (std::size_t ii = 0; ii < kTileMR; ++ii) {
          out[ii] = ii < mr ? a(i_base + ii, l0 + l) : 0.0f;
        }
      } else {
        const float* src = a.row(l0 + l) + i_base;  // op(A)(i, l) = A(l, i)
        for (std::size_t ii = 0; ii < kTileMR; ++ii) {
          out[ii] = ii < mr ? src[ii] : 0.0f;
        }
      }
    }
  }
}

void pack_b_impl(const Matrix& b, bool transpose, std::size_t k, std::size_t n,
                 std::size_t padded_n, float* dst) {
  for (std::size_t l0 = 0; l0 < k; l0 += kBlockK) {
    const std::size_t kc = std::min(kBlockK, k - l0);
    for (std::size_t j0 = 0; j0 < padded_n; j0 += kTileNR) {
      const std::size_t jn = j0 < n ? std::min(kTileNR, n - j0) : 0;
      for (std::size_t l = 0; l < kc; ++l) {
        if (!transpose) {
          const float* src = b.row(l0 + l) + j0;
          for (std::size_t j = 0; j < jn; ++j) dst[j] = src[j];
        } else {
          for (std::size_t j = 0; j < jn; ++j) {
            dst[j] = b(j0 + j, l0 + l);  // op(B)(l, j) = B(j, l)
          }
        }
        for (std::size_t j = jn; j < kTileNR; ++j) dst[j] = 0.0f;
        dst += kTileNR;
      }
    }
  }
}

// C[i_base.., j0..] += alpha * acc tile, clipped to the mr x jn valid region.
inline void add_tile(float alpha, const float* __restrict acc, Matrix& c,
                     std::size_t i_base, std::size_t mr, std::size_t j0,
                     std::size_t jn) {
  for (std::size_t ii = 0; ii < mr; ++ii) {
    float* crow = c.row(i_base + ii) + j0;
    const float* arow = acc + ii * kTileNR;
    for (std::size_t j = 0; j < jn; ++j) {
      crow[j] += alpha * arow[j];
    }
  }
}

// Packs op(B) (= B or B^T) into panels, rounding through bf16 if asked.
// O(k*n) — one pass over the operand.
PackedB pack_b(const Matrix& b, bool transpose, bool round_bf16) {
  PackedB out;
  out.k = transpose ? b.cols() : b.rows();
  out.n = transpose ? b.rows() : b.cols();
  out.padded_n = ceil_div(out.n, kTileNR) * kTileNR;
  // Panels tag themselves: the GEMM runs under whatever scope its caller set
  // (usually activations), but the bytes belong to the packed-panel budget.
  const mem::ArenaScope scope(mem::Tag::kPackedPanels);
  out.data.assign(out.k * out.padded_n, 0.0f);
  if (out.data.empty()) return out;
  pack_b_impl(b, transpose, out.k, out.n, out.padded_n, out.data.data());
  if (round_bf16) {
    const detail::GemmMicroKernels& kernels = detail::active_gemm_kernels();
    kernels.round_bf16(out.data.data(), out.data.data(), out.data.size());
  }
  return out;
}

// C += alpha * op(A) x packed-op(B); `trans_a` selects op(A) = A^T. Shapes
// were validated, and C scaled by beta, by gemm_tiled().
void gemm_packed(bool trans_a, float alpha, const Matrix& a,
                 const PackedB& packed_b, Matrix& c, bool round_bf16,
                 int budget) {
  const std::size_t m = trans_a ? a.cols() : a.rows();
  const detail::GemmMicroKernels& kernels = detail::active_gemm_kernels();
  const std::size_t n = packed_b.n;
  const std::size_t n_tiles = packed_b.n_tiles();
  const std::size_t k_blocks = packed_b.k_blocks();
  const std::size_t m_blocks = ceil_div(m, kBlockM);
  const std::size_t groups = ceil_div(n_tiles, kGroupNTiles);
  const std::size_t tasks = m_blocks * groups;
  const int lanes = static_cast<int>(
      std::min<std::size_t>(tasks, static_cast<std::size_t>(budget)));

  std::vector<std::size_t> lane_tiles(static_cast<std::size_t>(lanes), 0);
  auto run_lane = [&](int lane) {
    // Worker-local A pack: tasks sharing a row block each pack their own
    // copy, trading ~groups/(2n) duplicated pack work for zero sharing.
    const mem::ArenaScope scope(mem::Tag::kPackedPanels);
    // Sized for this problem's largest block, not the blocking bound: a
    // small product (an attention head) allocates a few KiB, not 96 KiB.
    mem::TrackedVector<float> a_pack(
        ceil_div(std::min(kBlockM, m), kTileMR) * kTileMR *
        std::min(kBlockK, packed_b.k));
    std::size_t my_tiles = 0;
    for (std::size_t t = static_cast<std::size_t>(lane); t < tasks;
         t += static_cast<std::size_t>(lanes)) {
      const std::size_t mi = t / groups;
      const std::size_t g = t % groups;
      const std::size_t i0 = mi * kBlockM;
      const std::size_t mc = std::min(kBlockM, m - i0);
      const std::size_t m_tiles = ceil_div(mc, kTileMR);
      const std::size_t jt_begin = g * kGroupNTiles;
      const std::size_t jt_end = std::min(jt_begin + kGroupNTiles, n_tiles);
      for (std::size_t kb = 0; kb < k_blocks; ++kb) {
        const std::size_t l0 = kb * kBlockK;
        const std::size_t kc = packed_b.k_block_rows(kb);
        pack_a_block(a, trans_a, i0, mc, l0, kc, a_pack.data());
        if (round_bf16) {
          kernels.round_bf16(a_pack.data(), a_pack.data(),
                             m_tiles * kc * kTileMR);
        }
        std::size_t jt = jt_begin;
        if (kernels.tile2 != nullptr) {
          for (; jt + 1 < jt_end; jt += 2) {
            const float* b0 = packed_b.panel(kb, jt);
            const float* b1 = packed_b.panel(kb, jt + 1);
            const std::size_t j0 = jt * kTileNR;
            const std::size_t jn0 = std::min(kTileNR, n - j0);
            const std::size_t j1 = j0 + kTileNR;
            const std::size_t jn1 = std::min(kTileNR, n - j1);
            for (std::size_t it = 0; it < m_tiles; ++it) {
              alignas(64) float acc[2 * kTileMR * kTileNR];
              kernels.tile2(kc, a_pack.data() + it * (kc * kTileMR), b0, b1,
                            acc);
              const std::size_t i_base = i0 + it * kTileMR;
              const std::size_t mr = std::min(kTileMR, i0 + mc - i_base);
              add_tile(alpha, acc, c, i_base, mr, j0, jn0);
              add_tile(alpha, acc + kTileMR * kTileNR, c, i_base, mr, j1,
                       jn1);
              my_tiles += 2;
            }
          }
        }
        for (; jt < jt_end; ++jt) {
          const float* b_panel = packed_b.panel(kb, jt);
          const std::size_t j0 = jt * kTileNR;
          const std::size_t jn = std::min(kTileNR, n - j0);
          for (std::size_t it = 0; it < m_tiles; ++it) {
            alignas(64) float acc[kTileMR * kTileNR];
            kernels.tile1(kc, a_pack.data() + it * (kc * kTileMR), b_panel,
                          acc);
            const std::size_t i_base = i0 + it * kTileMR;
            const std::size_t mr = std::min(kTileMR, i0 + mc - i_base);
            add_tile(alpha, acc, c, i_base, mr, j0, jn);
            my_tiles += 1;
          }
        }
      }
    }
    lane_tiles[static_cast<std::size_t>(lane)] = my_tiles;
  };

  WorkerTeam::this_thread().run(lanes, run_lane);

  std::size_t total = 0;
  for (std::size_t count : lane_tiles) total += count;
  tiles_counter().add(static_cast<double>(total));
  if (lanes > 1) {
    const auto [lo, hi] = std::minmax_element(lane_tiles.begin(),
                                              lane_tiles.end());
    if (*hi > 0) {
      imbalance_hist().observe(100.0 *
                               static_cast<double>(*hi - *lo) /
                               static_cast<double>(*hi));
    }
  }
}

// C += alpha * a x B for a one-row `a`, reading B in place: a one-row product
// would spend most of its time packing op(B), and every packed panel would be
// read once. Per element it runs the packed path's sequence (a zeroed
// accumulator per kBlockK slab, the tier's FMA per l, then add_tile), so it
// is bitwise that path's row. Single-lane: a row is too little work to split.
void gemm_row(float alpha, const Matrix& a, const Matrix& b, Matrix& c) {
  const detail::GemmMicroKernels& kernels = detail::active_gemm_kernels();
  const std::size_t k = b.rows();
  const std::size_t n = b.cols();
  constexpr std::size_t kRowChunk = 16 * kTileNR;
  alignas(64) float acc[kRowChunk];
  for (std::size_t j0 = 0; j0 < n; j0 += kRowChunk) {
    const std::size_t jn = std::min(kRowChunk, n - j0);
    for (std::size_t l0 = 0; l0 < k; l0 += kBlockK) {
      kernels.row(std::min(kBlockK, k - l0), jn, a.data() + l0,
                  b.row(l0) + j0, n, acc);
      add_tile(alpha, acc, c, 0, 1, j0, jn);
    }
  }
}

}  // namespace

void gemm_tiled(GemmMode mode, float alpha, const Matrix& a, const Matrix& b,
                float beta, Matrix& c, bool round_bf16) {
  const GemmShape shape = gemm_shape(mode, a, b);
  AXONN_CHECK_MSG(c.rows() == shape.m && c.cols() == shape.n,
                  "GEMM output shape does not match operands");
  const int budget = gemm_threads();
  detail::record_gemm_dispatch(GemmBackend::kTiled, mode, shape, round_bf16,
                               active_gemm_isa(), budget);
  if (beta == 0.0f) {
    c.set_zero();
  } else if (beta != 1.0f) {
    c.scale_inplace(beta);
  }
  // BLAS semantics: alpha == 0 means C = beta * C without touching A or B.
  if (alpha == 0.0f || shape.m == 0 || shape.n == 0 || shape.k == 0) return;
  if (shape.m == 1 && mode == GemmMode::kNN && !round_bf16) {
    gemm_row(alpha, a, b, c);
    return;
  }
  const PackedB packed = pack_b(b, gemm_transposes_b(mode), round_bf16);
  gemm_packed(gemm_transposes_a(mode), alpha, a, packed, c, round_bf16,
              budget);
}

}  // namespace axonn
