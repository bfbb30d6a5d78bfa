#pragma once

// A complete, trainable GPT-style decoder built on the 4D parallel engine.
//
// This is the "AxoNN as a backend in a serial training codebase" story of
// §VI-A, at laptop scale: embeddings, pre-norm transformer blocks with
// causal multi-head attention and GELU MLPs, and a language-model head,
// with full manual backpropagation. The four FC sublayers of every block
// are core::TensorParallelFC instances, so the model runs on any Z x data
// grid — the exact setup of the paper's memorization study ("8-way
// Z-tensor parallelism", §VIII-B): with Gx = Gy = 1 the Z dimension shards
// weights FSDP-style while every rank processes its own batch shard, and
// attention operates on full (unsplit) hidden states.
//
// Replicated parameters (embeddings, layernorms, LM head) are kept
// identical across ranks by summing their gradients over the Z and data
// groups in sync_gradients().

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "axonn/core/fc_layer.hpp"
#include "axonn/core/grid4d.hpp"
#include "axonn/tensor/ops.hpp"
#include "axonn/train/adam.hpp"
#include "axonn/train/corpus.hpp"
#include "axonn/train/goldfish.hpp"

namespace axonn::train {

struct TinyGPTConfig {
  int vocab = 64;
  int max_seq = 64;
  int layers = 2;
  int hidden = 64;
  int heads = 4;
  float init_std = 0.06f;
  /// Round the operands of every FC-sublayer and LM-head GEMM through bf16.
  /// The attention products stay fp32.
  bool mixed_precision = false;
  std::uint64_t seed = 1;
  /// ORS/OAR/OAG on the FC sublayers.
  bool overlap_collectives = true;
  /// ABFT checksum verification on every FC GEMM (see FCOptions::abft and
  /// DESIGN.md §9). Off by default; AXONN_INTEGRITY overrides per process.
  integrity::AbftOptions abft;
};

class GPTModel {
 public:
  /// Collective: all ranks of the grid construct with the same config.
  /// Supports grids with gx == gy == 1 (Z-sharding x data parallelism);
  /// X/Y tensor parallelism of attention is out of scope for this model.
  GPTModel(core::Grid4D& grid, const TinyGPTConfig& config);

  const TinyGPTConfig& config() const { return config_; }
  std::uint64_t parameter_count() const;

  /// Registers every parameter (FC shards + replicated tensors) with the
  /// optimizer. Call once.
  void register_params(Adam& adam);

  /// Visits every parameter tensor in the exact order register_params()
  /// registers them — the serialization order of the checkpoint format.
  /// Note: with gz > 1 the FC tensors are this rank's Z-shards, so
  /// checkpoints are per-rank.
  void for_each_parameter(const std::function<void(Matrix&)>& fn);

  /// Visits every gradient tensor in register_params() order. Requires no
  /// reduce-scatter in flight on the FC sublayers (call after
  /// sync_gradients()). Used by the training sentinel's health checks.
  void for_each_gradient(const std::function<void(Matrix&)>& fn);

  /// Global shape of one parameter, in register_params() order.
  /// Z-sharded tensors (the FC weights) are stored per-rank as a contiguous
  /// row chunk of the (full_rows x cols) global tensor, partitioned over the
  /// Z group by base::chunk_range; replicated tensors are stored whole. This
  /// is the schema the elastic shrink path uses to re-shard a gz=N snapshot
  /// onto gz=M survivors without constructing the old model.
  struct ParamSpec {
    bool z_sharded = false;
    std::size_t full_rows = 0;  ///< global rows (shard rows summed over Z)
    std::size_t cols = 0;
  };
  std::vector<ParamSpec> parameter_specs() const;

  /// Forward + backward + gradient sync over this rank's batch of
  /// equal-length sequences. Returns the mean next-token cross-entropy over
  /// this rank's unmasked targets. If `goldfish` is non-null the goldfish
  /// mask drops 1/k targets. The caller then runs adam.step().
  float train_step(const std::vector<TokenSeq>& sequences,
                   const GoldfishConfig* goldfish = nullptr);

  /// Mean next-token loss without gradients. NOTE: like every forward pass,
  /// this is collective when gz > 1 (weight all-gathers over the Z group);
  /// all ranks of the grid must call it — the same applies to
  /// logits / greedy_generate / exact_match / probe_accuracy.
  float evaluate_loss(const std::vector<TokenSeq>& sequences);

  /// Teacher-forced logits of one sequence, (tokens.size() x vocab): row i
  /// predicts token i + 1 from tokens[0..i].
  Matrix logits(const TokenSeq& tokens);

  /// Greedy decoding: extends `prompt` by `new_tokens` tokens. The prompt
  /// runs once (prefill); each later step runs only its newest token against
  /// a per-block K/V cache. Throws if the last fed token's position would
  /// reach max_seq. If `step_logits` is non-null it receives the (new_tokens
  /// x vocab) logits the decode computed: row s, which picked token
  /// prompt.size() + s, is bitwise row prompt.size() - 1 + s of logits() on
  /// the generated sequence.
  TokenSeq greedy_generate(const TokenSeq& prompt, int new_tokens,
                           Matrix* step_logits = nullptr);

  /// True iff greedily prompting with the first (doc size - probe) tokens
  /// reproduces the final `probe` tokens exactly — the §VIII-B metric.
  bool exact_match(const TokenSeq& document, int probe_tokens);

  /// Fraction of the probe positions whose teacher-forced argmax is correct
  /// — a graded memorization signal (1.0 iff exact_match).
  double probe_accuracy(const TokenSeq& document, int probe_tokens);

  void zero_grad();
  /// Completes ORS, sums sharded grads over data groups and replicated
  /// grads over Z x data, and normalizes so the update equals the global
  /// batch mean.
  void sync_gradients();

 private:
  struct Block {
    // Layernorm parameters as (1 x hidden) matrices so Adam manages them
    // uniformly; converted to vectors at the op boundary.
    Matrix ln1_gamma, ln1_beta, ln2_gamma, ln2_beta;
    Matrix ln1_gamma_grad, ln1_beta_grad, ln2_gamma_grad, ln2_beta_grad;
    std::unique_ptr<core::TensorParallelFC> qkv;
    std::unique_ptr<core::TensorParallelFC> attn_out;
    std::unique_ptr<core::TensorParallelFC> mlp_up;
    std::unique_ptr<core::TensorParallelFC> mlp_down;

    /// The four FC sublayers in register_params() order, which is the
    /// checkpoint serialization order.
    std::array<core::TensorParallelFC*, 4> fcs() const {
      return {qkv.get(), attn_out.get(), mlp_up.get(), mlp_down.get()};
    }
  };

  /// What one block's backward reads beyond the FC sublayers' own cached
  /// inputs.
  struct BlockCache {
    LayerNormCache ln1;
    Matrix qkv_out;
    LayerNormCache ln2;
    Matrix mlp_pre_gelu;
  };

  /// Token + position embeddings of positions [offset, offset + len) of
  /// every sequence, (sequences.size() * len) x hidden.
  Matrix embed(const std::vector<TokenSeq>& sequences, std::size_t offset,
               std::size_t len);
  /// The transformer blocks over `batch` sequences of x.rows() / batch rows
  /// each, at positions [offset, ...). Training and teacher forcing pass
  /// offset 0 and no kv_cache; decoding passes one cache per block.
  Matrix forward_blocks(Matrix x, std::size_t batch, std::size_t offset,
                        std::vector<BlockCache>* caches,
                        std::vector<Matrix>* kv_cache);
  /// Causal multi-head attention for the query rows of the packed
  /// [Q | K | V] columns of `qkv_out`, at positions [offset, offset + len)
  /// of each sequence, over keys [0, offset + len). Without a kv_cache the
  /// keys are the call's own rows (offset 0); with one (batch 1) the call's
  /// K | V columns are first stored at its rows [offset, offset + len), and
  /// the keys are read back from it. Both directions run one set of
  /// gemm_tiled products per (sequence, head); backward recomputes the
  /// softmax probabilities with the forward's own call instead of caching
  /// them.
  Matrix attention_forward(const Matrix& qkv_out, std::size_t batch,
                           std::size_t offset, Matrix* kv_cache) const;
  Matrix attention_backward(const Matrix& qkv_out, const Matrix& d_concat,
                            std::size_t batch, std::size_t input_len) const;
  Matrix forward_logits(const std::vector<TokenSeq>& sequences,
                        std::size_t input_len,
                        std::vector<BlockCache>* caches,
                        LayerNormCache* final_ln_cache, Matrix* final_out);
  /// Final layernorm, then the LM head, over the rows of `x`.
  Matrix lm_head_forward(const Matrix& x, LayerNormCache* final_ln_cache,
                         Matrix* final_out) const;
  /// One LM-head product on the tiled kernel. Like the FC sublayers, all
  /// three (forward NN, backward NT and TN) round their operands through
  /// bf16 under mixed_precision.
  Matrix lm_head_gemm(GemmMode mode, const Matrix& a, const Matrix& b) const;

  /// Marks every FC sublayer's gathered-weight cache stale: weights may
  /// have changed since the last gather (an optimizer step through Adam's
  /// retained pointers).
  void invalidate_fc_caches();
  void all_reduce_replicated(Matrix& grad);

  core::Grid4D& grid_;
  TinyGPTConfig config_;
  int head_dim_;

  Matrix tok_emb_, tok_emb_grad_;
  Matrix pos_emb_, pos_emb_grad_;
  std::vector<Block> blocks_;
  Matrix final_gamma_, final_beta_, final_gamma_grad_, final_beta_grad_;
  Matrix lm_head_, lm_head_grad_;
};

}  // namespace axonn::train
