#include "axonn/core/fc_layer.hpp"

#include <span>
#include <string>

#include "axonn/base/arena.hpp"
#include "axonn/base/error.hpp"
#include "axonn/base/trace.hpp"
#include "axonn/tensor/gemm_tiled.hpp"

namespace axonn::core {

TensorParallelFC::TensorParallelFC(Grid4D& grid, std::size_t in_features,
                                   std::size_t out_features, std::uint64_t seed,
                                   FCOptions options)
    : grid_(grid),
      in_features_(in_features),
      out_features_(out_features),
      options_(options) {
  AXONN_CHECK(in_features >= 1 && out_features >= 1);
  in_range_ = chunk_range(in_features, static_cast<std::size_t>(row_dim()),
                          static_cast<std::size_t>(row_coord()));
  out_range_ = chunk_range(out_features, static_cast<std::size_t>(col_dim()),
                           static_cast<std::size_t>(col_coord()));

  // Every rank draws the same full weight from the seed, then keeps only its
  // block's Z-shard. This guarantees all shards are consistent views of one
  // global W without any startup communication. The full-matrix draw and its
  // block are construction-time transients, but they are still charged to the
  // weights tag — they dominate the weights HWM at init.
  const mem::ArenaScope scope(mem::Tag::kWeights);
  Rng rng(seed);
  const Matrix full =
      Matrix::randn(in_features, out_features, rng, 0.0f, options_.init_std);
  const Matrix block = full.block(in_range_, out_range_);

  const auto gz = static_cast<std::size_t>(grid_.shape().gz);
  z_counts_.resize(gz);
  z_elem_counts_.resize(gz);
  for (std::size_t zr = 0; zr < gz; ++zr) {
    z_counts_[zr] = chunk_size(block.rows(), gz, zr);
    z_elem_counts_[zr] = z_counts_[zr] * block.cols();
  }
  const Range my_rows = chunk_range(block.rows(), gz,
                                    static_cast<std::size_t>(grid_.z()));
  weight_shard_ = block.block(my_rows, Range{0, block.cols()});
  {
    const mem::ArenaScope grad_scope(mem::Tag::kGrads);
    weight_grad_shard_ =
        Matrix::zeros(weight_shard_.rows(), weight_shard_.cols());
  }
}

Matrix TensorParallelFC::scatter_input(const Matrix& full_input) const {
  AXONN_CHECK_MSG(full_input.cols() == in_features_,
                  "input feature count does not match layer");
  const Range rows = chunk_range(full_input.rows(),
                                 static_cast<std::size_t>(grid_.shape().gz),
                                 static_cast<std::size_t>(grid_.z()));
  return full_input.block(rows, in_range_);
}

Range TensorParallelFC::input_row_range(std::size_t total_rows) const {
  return chunk_range(total_rows, static_cast<std::size_t>(grid_.shape().gz),
                     static_cast<std::size_t>(grid_.z()));
}

Matrix TensorParallelFC::multiply(GemmMode mode, const Matrix& a,
                                  const Matrix& b) {
  // ABFT (integrity/abft.hpp) wraps whichever kernel runs below: checksums
  // are predicted from (a, b) before the kernel and verified against c after,
  // so every path — tiled, reference, bf16 — is covered by the same
  // identity. With abft.mode off (the default) the wrapper invokes the
  // kernel once and returns, bit-identical to the unwrapped dispatch.
  const auto compute = [&](Matrix& out) {
    if (options_.gemm_backend == GemmBackend::kTiled) {
      gemm_tiled(mode, 1.0f, a, b, 0.0f, out, options_.mixed_precision);
    } else if (options_.mixed_precision) {
      gemm_bf16(mode, 1.0f, a, b, 0.0f, out);
    } else {
      gemm(mode, 1.0f, a, b, 0.0f, out);
    }
  };
  const GemmShape shape = gemm_shape(mode, a, b);
  Matrix c(shape.m, shape.n);
  const std::string op = std::string("fc:") + to_string(mode);
  integrity::abft_checked_gemm(options_.abft, op.c_str(), options_.gemm_backend,
                               mode, 1.0f, a, b, 0.0f, c,
                               options_.mixed_precision, compute);
  return c;
}

void TensorParallelFC::discard_stale_prefetch() {
  if (pending_weight_gather_) {
    pending_weight_gather_->wait();
    pending_weight_gather_.reset();
  }
}

void TensorParallelFC::begin_weight_gather() {
  if (weight_cache_valid_) return;
  if (pending_weight_gather_) {
    if (prefetch_version_ == weight_version_) return;  // still fresh
    // The weights changed under the in-flight prefetch (an optimizer step
    // between begin_weight_gather() and the next forward): drain it — its
    // buffers are lane-owned until completion — and reissue against the new
    // shard. Symmetric on every Z rank (same invalidation history), so the
    // collective order stays consistent.
    discard_stale_prefetch();
  }
  // Snapshot the shard on this (the owning) thread: the progress lane reads
  // only this copy, so a later in-place weight update cannot race the gather
  // or leak pre-update values into it.
  const mem::ArenaScope scope(mem::Tag::kWeights);
  prefetch_send_buffer_ = weight_shard_;
  prefetch_block_ = Matrix(in_range_.size(), out_range_.size());
  prefetch_version_ = weight_version_;
  pending_weight_gather_ = grid_.z_comm().iall_gatherv(
      std::span<const float>(prefetch_send_buffer_.storage()),
      std::span<float>(prefetch_block_.storage()), z_elem_counts_);
}

void TensorParallelFC::gather_weights_into_cache() {
  if (weight_cache_valid_) return;
  if (pending_weight_gather_) {
    const bool fresh = prefetch_version_ == weight_version_;
    {
      // OAG window closes: time the compute thread spends here is the
      // exposed remainder of the prefetched all-gather.
      obs::SpanGuard wait(obs::kCatWait, "AG_z.wait");
      pending_weight_gather_->wait();
      pending_weight_gather_.reset();
    }
    if (fresh) {
      cached_weight_block_ = std::move(prefetch_block_);
      weight_cache_valid_ = true;
      return;
    }
    // Stale (invalidated after issue): the gathered block reflects
    // pre-update weights — drop it and fall through to a fresh blocking
    // gather of the current shard. This is the bug the version pair exists
    // to close: the old path adopted whatever the prefetch brought back.
  }
  const mem::ArenaScope scope(mem::Tag::kWeights);
  cached_weight_block_ = Matrix(in_range_.size(), out_range_.size());
  grid_.z_comm().all_gatherv(
      std::span<const float>(weight_shard_.storage()),
      std::span<float>(cached_weight_block_.storage()), z_elem_counts_);
  weight_cache_valid_ = true;
}

Matrix TensorParallelFC::forward(const Matrix& input_local) {
  AXONN_CHECK_MSG(input_local.cols() == in_local(),
                  "local input columns must match this rank's W-row share");
  gather_weights_into_cache();
  Matrix output;
  {
    obs::SpanGuard span(obs::kCatCompute, "fwd_gemm");
    output = multiply(GemmMode::kNN, input_local, cached_weight_block_);
  }
  row_comm().all_reduce(std::span<float>(output.storage()),
                        comm::ReduceOp::kSum);
  cached_input_ = input_local;
  return output;
}

Matrix TensorParallelFC::backward(const Matrix& grad_output_local) {
  AXONN_CHECK_MSG(weight_cache_valid_,
                  "backward requires a preceding forward (cached W)");
  AXONN_CHECK(grad_output_local.rows() == cached_input_.rows());
  AXONN_CHECK(grad_output_local.cols() == out_local());

  // Wait for any previous layer-reuse of the RS buffers.
  if (pending_reduce_scatter_) finish_gradients();

  // Line 11: dI_hat = dO x W^T.
  Matrix grad_input;
  {
    obs::SpanGuard span(obs::kCatCompute, "bwd_dI_gemm");
    grad_input =
        multiply(GemmMode::kNT, grad_output_local, cached_weight_block_);
  }

  std::optional<comm::Request> dI_request;
  if (options_.overlap_input_grad_all_reduce) {
    // Line 12 issued asynchronously (OAR) on the high-priority lane: the
    // consumer blocks on it right after the dW GEMM, so it must never queue
    // behind a bulk reduce-scatter from a later (in backward order) layer.
    dI_request = col_comm().iall_reduce(std::span<float>(grad_input.storage()),
                                        comm::ReduceOp::kSum,
                                        comm::CommPriority::kHigh);
  } else {
    col_comm().all_reduce(std::span<float>(grad_input.storage()),
                          comm::ReduceOp::kSum);
  }

  // Line 13: dW_hat = I^T x dO — overlapped with the dI all-reduce when OAR
  // is on.
  {
    obs::SpanGuard span(obs::kCatCompute, "bwd_dW_gemm");
    rs_send_buffer_ = multiply(GemmMode::kTN, cached_input_, grad_output_local);
  }

  if (dI_request) {
    obs::SpanGuard wait(obs::kCatWait, "AR_col.wait");
    dI_request->wait();
  }

  // Line 14: dW_shard = reduce-scatter_z(dW_hat). The receive staging buffer
  // is comm plumbing, not a gradient tensor (the send side stays on the
  // activations tag: it is a GEMM output like any other).
  {
    const mem::ArenaScope scope(mem::Tag::kCommBuffers);
    rs_recv_buffer_ = Matrix(weight_shard_.rows(), weight_shard_.cols());
  }
  if (options_.overlap_weight_grad_reduce_scatter) {
    // ORS rides the bulk lane: nobody reads the result until
    // finish_gradients(), so it must never delay a dI all-reduce or an OAG
    // prefetch sharing the rank's progress engine.
    pending_reduce_scatter_ = grid_.z_comm().ireduce_scatterv(
        std::span<const float>(rs_send_buffer_.storage()),
        std::span<float>(rs_recv_buffer_.storage()), z_elem_counts_,
        comm::ReduceOp::kSum, comm::CommPriority::kBulk);
  } else {
    grid_.z_comm().reduce_scatterv(
        std::span<const float>(rs_send_buffer_.storage()),
        std::span<float>(rs_recv_buffer_.storage()), z_elem_counts_,
        comm::ReduceOp::kSum);
    weight_grad_shard_.add_inplace(rs_recv_buffer_);
  }
  return grad_input;
}

void TensorParallelFC::finish_gradients() {
  if (!pending_reduce_scatter_) return;
  {
    obs::SpanGuard wait(obs::kCatWait, "RS_z.wait");
    pending_reduce_scatter_->wait();
  }
  pending_reduce_scatter_.reset();
  weight_grad_shard_.add_inplace(rs_recv_buffer_);
}

Matrix& TensorParallelFC::mutable_weight_shard() {
  invalidate_weight_cache();  // any edit invalidates the gathered cache
  return weight_shard_;
}

const Matrix& TensorParallelFC::weight_grad_shard() const {
  AXONN_CHECK_MSG(!pending_reduce_scatter_,
                  "finish_gradients() before reading gradients");
  return weight_grad_shard_;
}

Matrix& TensorParallelFC::mutable_weight_grad_shard() {
  AXONN_CHECK_MSG(!pending_reduce_scatter_,
                  "finish_gradients() before mutating gradients");
  return weight_grad_shard_;
}

void TensorParallelFC::zero_grad() {
  finish_gradients();
  weight_grad_shard_.set_zero();
}

void TensorParallelFC::apply_sgd(float lr) {
  finish_gradients();
  weight_shard_.axpy_inplace(-lr, weight_grad_shard_);
  invalidate_weight_cache();
}

Matrix TensorParallelFC::gather_weight_block() {
  Matrix block(in_range_.size(), out_range_.size());
  grid_.z_comm().all_gatherv(std::span<const float>(weight_shard_.storage()),
                             std::span<float>(block.storage()),
                             z_elem_counts_);
  return block;
}

}  // namespace axonn::core
