#pragma once

// Tensor-parallel fully-connected layer — Algorithm 1 of the paper, executed
// on real data over the communicator runtime.
//
// The weight W (in_features x out_features) is 2D-decomposed over the
// row-group x column-group planes of the 3D grid and further sharded along
// Z (the memory-saving modification of Agarwal's algorithm). The input I is
// row-sharded over Z and column-sharded over the row group; it is
// replicated across the column group. Forward:
//     W_block = all-gather_z(W_shard)            (line 2)
//     O_hat   = I_local x W_block                (line 3)
//     O       = all-reduce_row(O_hat)            (line 4)
// Backward:
//     dI_hat  = dO x W_block^T                   (line 11)
//     dI      = all-reduce_col(dI_hat)           (line 12; overlappable, OAR)
//     dW_hat  = I_local^T x dO                   (line 13)
//     dW_shard+= reduce-scatter_z(dW_hat)        (line 14; deferrable, ORS)
//
// For 'transposed' layers (every other FC layer, §V-A) the row group is the
// X dimension and the column group is Y; otherwise row = Y, column = X.
// The forward weight all-gather can be issued ahead of time with
// begin_weight_gather() (OAG).

#include <cstdint>
#include <optional>
#include <vector>

#include "axonn/base/rng.hpp"
#include "axonn/core/grid4d.hpp"
#include "axonn/integrity/abft.hpp"
#include "axonn/tensor/gemm.hpp"
#include "axonn/tensor/matrix.hpp"

namespace axonn::core {

struct FCOptions {
  bool transposed = false;
  /// Round GEMM operands through bf16 (mixed-precision emulation).
  bool mixed_precision = false;
  /// OAR: overlap the dI all-reduce with the dW GEMM.
  bool overlap_input_grad_all_reduce = false;
  /// ORS: issue the dW reduce-scatter asynchronously; completed only at
  /// finish_gradients().
  bool overlap_weight_grad_reduce_scatter = false;
  /// GEMM backend for the layer's three products: kReference runs the
  /// seed's scalar kernel unchanged (bit-identical results); kTiled runs
  /// gemm_tiled(), which packs op(B) per call. Packing resolves operand
  /// transposes, so there is no per-mode kernel choice left to make here;
  /// the paper's §V-C mode tuning is modelled in sim::SimOptions.
  GemmBackend gemm_backend = GemmBackend::kReference;
  /// Weight init: N(0, init_std^2), identical on every rank by seed.
  float init_std = 0.02f;
  /// ABFT (Huang–Abraham checksum) verification around the layer's three
  /// GEMMs — forward NN, backward-dI NT, backward-dW TN — covering every
  /// execution path (reference, tiled, bf16). abft.mode
  /// is resolved against the AXONN_INTEGRITY override per call; kHeal
  /// recomputes a mismatching GEMM in place of failing. See
  /// integrity/abft.hpp and DESIGN.md §9.
  integrity::AbftOptions abft;
};

class TensorParallelFC {
 public:
  /// Collective over the grid: all ranks construct with identical
  /// arguments. `seed` determines the (globally consistent) full weight.
  TensorParallelFC(Grid4D& grid, std::size_t in_features,
                   std::size_t out_features, std::uint64_t seed,
                   FCOptions options = {});

  std::size_t in_features() const { return in_features_; }
  std::size_t out_features() const { return out_features_; }
  const FCOptions& options() const { return options_; }
  const sim::GridShape& grid_shape() const { return grid_.shape(); }

  /// Local tile sizes this rank works with.
  std::size_t in_local() const { return in_range_.size(); }
  std::size_t out_local() const { return out_range_.size(); }

  /// Column range of the global input this rank consumes / produces.
  Range input_col_range() const { return in_range_; }
  Range output_col_range() const { return out_range_; }

  /// Extracts this rank's local input block from a full (rows x in) matrix
  /// whose rows belong to this data-parallel group.
  Matrix scatter_input(const Matrix& full_input) const;
  /// Row range of the group input this rank processes (Z sharding).
  Range input_row_range(std::size_t total_rows) const;

  /// OAG: start the weight all-gather for the next forward pass. Idempotent;
  /// forward() consumes the pending gather. Safe to interleave with weight
  /// updates: the gather reads a snapshot of the shard taken here (on the
  /// calling thread), lands in a prefetch buffer that is never the in-use
  /// cache, and is version-checked at consumption — a gather made stale by
  /// invalidate_weight_cache() is drained, discarded and reissued rather
  /// than adopted. Collective over the Z group: every member rank must call
  /// it in the same order with the same invalidation history (true for the
  /// SPMD training loop).
  void begin_weight_gather();

  /// Algorithm 1 lines 1-7. input_local: (m_local x in_local).
  Matrix forward(const Matrix& input_local);

  /// Algorithm 1 lines 9-16. Returns dL/dI_local; accumulates the weight
  /// gradient shard. Requires a preceding forward() (caches I and W).
  ///
  /// OAG-in-backward audit: the paper prefetches weight all-gathers in the
  /// backward pass too, because its implementation frees the gathered W
  /// block after forward to save memory. This runtime keeps the gathered
  /// block cached across forward+backward (weight_cache_valid_), so
  /// backward never re-gathers — there is no communication to prefetch and
  /// the optimization is intentionally absent. If a future memory
  /// optimization drops the cache after forward, backward must gain a
  /// begin_weight_gather() prefetch driven by the *next* layer's backward
  /// (mirroring mlp.cpp's forward-time OAG). Asserted by the
  /// BackwardIssuesNoWeightGather test.
  Matrix backward(const Matrix& grad_output_local);

  /// Completes any outstanding reduce-scatter (ORS). Must be called before
  /// reading gradients or starting the data-parallel all-reduce.
  void finish_gradients();

  /// Local Z-shard of the weight (shard_rows x out_local) and its gradient.
  const Matrix& weight_shard() const { return weight_shard_; }
  Matrix& mutable_weight_shard();

  /// Marks the gathered-weight cache stale. Must be called after mutating
  /// the shard through a retained pointer (e.g. an optimizer step);
  /// mutable_weight_shard() does this automatically for direct access.
  /// Non-blocking: an in-flight OAG prefetch keeps running (it reads its own
  /// snapshot of the shard, never the live storage), but the version bump
  /// marks it stale so it is discarded — never adopted — at the next
  /// begin_weight_gather()/forward().
  void invalidate_weight_cache() {
    weight_cache_valid_ = false;
    ++weight_version_;
  }
  const Matrix& weight_grad_shard() const;
  /// Mutable gradient access for optimizers / the data-parallel all-reduce.
  /// Requires no reduce-scatter in flight.
  Matrix& mutable_weight_grad_shard();

  void zero_grad();

  /// Plain SGD step on the shard (tests and the quickstart example; the
  /// train module brings Adam).
  void apply_sgd(float lr);

  /// Reconstructs this rank's full W block (collective over Z). For tests
  /// and checkpointing.
  Matrix gather_weight_block();

  /// Wire-traffic predictions cross-checked in tests: rows of the W block
  /// each Z rank contributes.
  const std::vector<std::size_t>& z_shard_counts() const { return z_counts_; }

 private:
  comm::Communicator& row_comm() {
    return options_.transposed ? grid_.x_comm() : grid_.y_comm();
  }
  comm::Communicator& col_comm() {
    return options_.transposed ? grid_.y_comm() : grid_.x_comm();
  }
  int row_coord() const { return options_.transposed ? grid_.x() : grid_.y(); }
  int col_coord() const { return options_.transposed ? grid_.y() : grid_.x(); }
  int row_dim() const {
    return options_.transposed ? grid_.shape().gx : grid_.shape().gy;
  }
  int col_dim() const {
    return options_.transposed ? grid_.shape().gy : grid_.shape().gx;
  }

  /// Runs one of the layer's GEMMs on the configured backend, under ABFT.
  Matrix multiply(GemmMode mode, const Matrix& a, const Matrix& b);
  void gather_weights_into_cache();
  /// Completes and drops an in-flight prefetch whose snapshot predates the
  /// current weight version (the buffers must not be reused while the
  /// progress lane still writes them).
  void discard_stale_prefetch();

  Grid4D& grid_;
  std::size_t in_features_;
  std::size_t out_features_;
  FCOptions options_;

  Range in_range_;   ///< rows of W / cols of I owned by this row coordinate
  Range out_range_;  ///< cols of W owned by this column coordinate

  Matrix weight_shard_;      ///< Z-shard: (z_counts_[z] rows x out_local)
  Matrix weight_grad_shard_; ///< same shape, accumulated
  std::vector<std::size_t> z_counts_;       ///< W-block rows per Z rank
  std::vector<std::size_t> z_elem_counts_;  ///< elements per Z rank

  // Forward caches (Algorithm 1 line 5).
  Matrix cached_weight_block_;  ///< gathered (in_local x out_local)
  bool weight_cache_valid_ = false;
  Matrix cached_input_;

  // OAG prefetch double-buffer (DESIGN.md §12). The async gather owns these
  // two buffers exclusively until its Request completes: it reads
  // prefetch_send_buffer_ (a snapshot of the shard copied on the issuing
  // thread — the progress lane never touches the live weight_shard_, so an
  // optimizer step cannot race it) and writes prefetch_block_ (never the
  // in-use cached_weight_block_). The version pair detects staleness:
  // invalidate_weight_cache() bumps weight_version_; a prefetch stamped with
  // an older prefetch_version_ is drained and discarded, never adopted.
  Matrix prefetch_send_buffer_;
  Matrix prefetch_block_;
  std::uint64_t weight_version_ = 0;
  std::uint64_t prefetch_version_ = 0;

  // In-flight collectives.
  std::optional<comm::Request> pending_weight_gather_;
  std::optional<comm::Request> pending_reduce_scatter_;
  Matrix rs_send_buffer_;  ///< must outlive the async reduce-scatter
  Matrix rs_recv_buffer_;
};

}  // namespace axonn::core
