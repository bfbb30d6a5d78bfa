#pragma once

// A stack of tensor-parallel FC layers — "parallelizing an entire network"
// from §V-A.
//
// Consecutive layers alternate the 'transposed' weight decomposition so the
// output distribution of layer i (rows over Z, columns over layer i's
// column group) is exactly the input distribution layer i+1 expects; no
// redistribution is ever needed. The stack also hosts the cross-layer
// overlap optimizations: OAG prefetches the next layer's weight all-gather
// while the current layer computes, and the data-parallel gradient
// all-reduce runs once per batch over all shards (§V-D).

#include <cstdint>
#include <memory>
#include <vector>

#include "axonn/core/comm_check.hpp"
#include "axonn/core/fc_layer.hpp"

namespace axonn::core {

struct MLPOptions {
  bool mixed_precision = false;
  bool overlap_input_grad_all_reduce = false;   ///< OAR
  bool overlap_weight_grad_reduce_scatter = false;  ///< ORS
  bool overlap_weight_all_gather = false;       ///< OAG
  /// GEMM backend of every layer (see FCOptions::gemm_backend).
  GemmBackend gemm_backend = GemmBackend::kReference;
  bool gelu_between_layers = true;
  float init_std = 0.02f;
  /// First layer 'transposed' flag; subsequent layers alternate.
  bool first_layer_transposed = false;
  /// Cross-check measured wire_bytes against Eqs. 1–5 every iteration: a
  /// window opens at the first forward() and closes (comparing + logging
  /// divergence) at sync_gradients_data_parallel(). See CommModelChecker.
  bool validate_comm_model = false;
  double comm_model_tolerance = 0.02;
};

class TensorParallelMLP {
 public:
  /// feature_dims = {in, hidden..., out}: layer i maps dims[i] -> dims[i+1].
  TensorParallelMLP(Grid4D& grid, const std::vector<std::size_t>& feature_dims,
                    std::uint64_t seed, MLPOptions options = {});

  std::size_t num_layers() const { return layers_.size(); }
  TensorParallelFC& layer(std::size_t i) { return *layers_[i]; }
  const TensorParallelFC& layer(std::size_t i) const { return *layers_[i]; }

  /// Scatters a full (group) input to this rank's block for layer 0.
  Matrix scatter_input(const Matrix& full_input) const {
    return layers_.front()->scatter_input(full_input);
  }

  Matrix forward(const Matrix& input_local);
  Matrix backward(const Matrix& grad_output_local);

  /// Completes deferred reduce-scatters (ORS) and performs the data-parallel
  /// all-reduce, averaging gradients over the Gdata groups.
  void sync_gradients_data_parallel();

  void zero_grad();
  void apply_sgd(float lr);

  /// The Eq. 1–5 runtime checker (nullptr unless validate_comm_model).
  /// last_result() is meaningful after sync_gradients_data_parallel().
  const CommModelChecker* comm_checker() const { return checker_.get(); }

 private:
  Grid4D& grid_;
  MLPOptions options_;
  std::vector<std::unique_ptr<TensorParallelFC>> layers_;
  std::vector<Matrix> pre_activations_;  ///< inputs to each GELU
  std::unique_ptr<CommModelChecker> checker_;
};

}  // namespace axonn::core
