#include "axonn/core/mlp.hpp"

#include <span>

#include "axonn/base/error.hpp"
#include "axonn/base/trace.hpp"
#include "axonn/tensor/ops.hpp"

namespace axonn::core {

TensorParallelMLP::TensorParallelMLP(Grid4D& grid,
                                     const std::vector<std::size_t>& dims,
                                     std::uint64_t seed, MLPOptions options)
    : grid_(grid), options_(options) {
  AXONN_CHECK_MSG(dims.size() >= 2, "an MLP needs at least one layer");
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    FCOptions fc;
    fc.transposed = options.first_layer_transposed ? (i % 2 == 0) : (i % 2 == 1);
    fc.mixed_precision = options.mixed_precision;
    fc.overlap_input_grad_all_reduce = options.overlap_input_grad_all_reduce;
    fc.overlap_weight_grad_reduce_scatter =
        options.overlap_weight_grad_reduce_scatter;
    fc.gemm_backend = options.gemm_backend;
    fc.init_std = options.init_std;
    layers_.push_back(std::make_unique<TensorParallelFC>(
        grid, dims[i], dims[i + 1], hash_combine(seed, i), fc));
  }
  if (options.validate_comm_model) {
    checker_ = std::make_unique<CommModelChecker>(
        grid, options.comm_model_tolerance);
  }
}

Matrix TensorParallelMLP::forward(const Matrix& input_local) {
  pre_activations_.assign(layers_.size(), Matrix());
  if (checker_) {
    // One window per gradient step: opened here, closed (and compared) in
    // sync_gradients_data_parallel(); repeated forwards (microbatches)
    // accumulate expectations into the open window.
    if (!checker_->active()) checker_->begin();
    const auto group_rows =
        input_local.rows() * static_cast<std::size_t>(grid_.shape().gz);
    const bool sync_data = grid_.shape().gdata > 1;
    for (const auto& layer : layers_) {
      checker_->expect(
          predicted_layer_wire_bytes(*layer, group_rows, sync_data));
    }
  }
  Matrix activation = input_local;
  if (options_.overlap_weight_all_gather) {
    // OAG: the first gather cannot hide behind anything, but every later
    // layer's gather is enqueued while the preceding layer computes. The
    // enqueue order follows the (topologically sorted) execution order.
    layers_.front()->begin_weight_gather();
  }
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (options_.overlap_weight_all_gather && i + 1 < layers_.size()) {
      layers_[i + 1]->begin_weight_gather();
    }
    Matrix out = layers_[i]->forward(activation);
    if (options_.gelu_between_layers && i + 1 < layers_.size()) {
      obs::SpanGuard span(obs::kCatCompute, "gelu");
      pre_activations_[i] = out;
      activation = gelu(out);
    } else {
      activation = std::move(out);
    }
  }
  return activation;
}

Matrix TensorParallelMLP::backward(const Matrix& grad_output_local) {
  Matrix grad = grad_output_local;
  for (std::size_t idx = layers_.size(); idx-- > 0;) {
    if (options_.gelu_between_layers && idx + 1 < layers_.size()) {
      obs::SpanGuard span(obs::kCatCompute, "gelu_bwd");
      grad = gelu_backward(grad, pre_activations_[idx]);
    }
    grad = layers_[idx]->backward(grad);
  }
  return grad;
}

void TensorParallelMLP::sync_gradients_data_parallel() {
  for (auto& layer : layers_) {
    layer->finish_gradients();
  }
  if (grid_.shape().gdata > 1) {
    const float inv_groups = 1.0f / static_cast<float>(grid_.shape().gdata);
    for (auto& layer : layers_) {
      // The paper issues one all-reduce per gradient buffer at batch end.
      Matrix& grad = layer->mutable_weight_grad_shard();
      grid_.data_comm().all_reduce(std::span<float>(grad.storage()),
                                   comm::ReduceOp::kSum);
      grad.scale_inplace(inv_groups);
    }
  }
  if (checker_ && checker_->active()) checker_->finish();
}

void TensorParallelMLP::zero_grad() {
  for (auto& layer : layers_) layer->zero_grad();
}

void TensorParallelMLP::apply_sgd(float lr) {
  for (auto& layer : layers_) layer->apply_sgd(lr);
}

}  // namespace axonn::core
