#include "axonn/train/gpt_model.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "axonn/base/arena.hpp"
#include "axonn/base/error.hpp"
#include "axonn/base/trace.hpp"
#include "axonn/tensor/gemm_tiled.hpp"

namespace axonn::train {

namespace {

std::vector<float> row_vector(const Matrix& row_matrix) {
  const auto& s = row_matrix.storage();
  return std::vector<float>(s.begin(), s.end());
}

void accumulate_row(Matrix& row_matrix, const std::vector<float>& values) {
  AXONN_CHECK(row_matrix.size() == values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    row_matrix.data()[i] += values[i];
  }
}

constexpr float kNegInf = -1e9f;

/// alpha * op(A) x op(B) on the tiled kernel; round_bf16 rounds the
/// operands through bf16 as they are packed.
Matrix tiled_product(GemmMode mode, float alpha, const Matrix& a,
                     const Matrix& b, bool round_bf16 = false) {
  const GemmShape shape = gemm_shape(mode, a, b);
  Matrix c(shape.m, shape.n);
  gemm_tiled(mode, alpha, a, b, 0.0f, c, round_bf16);
  return c;
}

/// One head's causal softmax probabilities, softmax(mask(scale * Q K^T)),
/// for query rows at positions [offset, offset + q.rows()) over keys
/// [0, k.rows()): query i sees keys j <= offset + i. The whole rectangle is
/// computed and the future part overwritten, so the masked probabilities
/// are exact zeros — and a row's visible ones do not depend on how many
/// masked keys follow them.
Matrix causal_attention_probs(const Matrix& q, const Matrix& k, float scale,
                              std::size_t offset) {
  Matrix scores = tiled_product(GemmMode::kNT, scale, q, k);
  for (std::size_t i = 0; i < scores.rows(); ++i) {
    std::fill(scores.row(i) + offset + i + 1, scores.row(i) + scores.cols(),
              kNegInf);
  }
  return softmax_rows(scores);
}

/// `cols` moved right by `offset`: a head's K or V columns from its Q ones.
Range shifted(Range cols, std::size_t offset) {
  return {cols.begin + offset, cols.end + offset};
}

/// Index of the largest of row[0..n); the first maximum wins ties.
std::size_t argmax(const float* row, std::size_t n) {
  std::size_t best = 0;
  for (std::size_t v = 1; v < n; ++v) {
    if (row[v] > row[best]) best = v;
  }
  return best;
}

}  // namespace

GPTModel::GPTModel(core::Grid4D& grid, const TinyGPTConfig& config)
    : grid_(grid), config_(config) {
  AXONN_CHECK_MSG(grid.shape().gx == 1 && grid.shape().gy == 1,
                  "GPTModel supports Z x data grids (the memorization-study "
                  "setup); X/Y tensor parallelism is exercised by "
                  "core::TensorParallelMLP");
  AXONN_CHECK(config.hidden % config.heads == 0);
  head_dim_ = config.hidden / config.heads;

  // Construction charges the weights tag; gradient tensors get their own
  // scope so the grads budget is visible separately from step one.
  const mem::ArenaScope weights_scope(mem::Tag::kWeights);
  const auto h = static_cast<std::size_t>(config.hidden);
  Rng rng(hash_combine(config.seed, 0xE3BEDull));
  tok_emb_ = Matrix::randn(static_cast<std::size_t>(config.vocab), h, rng,
                           0.0f, config.init_std);
  pos_emb_ = Matrix::randn(static_cast<std::size_t>(config.max_seq), h, rng,
                           0.0f, config.init_std);
  {
    const mem::ArenaScope grads_scope(mem::Tag::kGrads);
    tok_emb_grad_ = Matrix::zeros(tok_emb_.rows(), h);
    pos_emb_grad_ = Matrix::zeros(pos_emb_.rows(), h);
  }

  core::FCOptions fc;
  fc.mixed_precision = config.mixed_precision;
  fc.overlap_input_grad_all_reduce = config.overlap_collectives;
  fc.overlap_weight_grad_reduce_scatter = config.overlap_collectives;
  fc.gemm_backend = GemmBackend::kTiled;
  fc.init_std = config.init_std;
  fc.abft = config.abft;

  blocks_.resize(static_cast<std::size_t>(config.layers));
  for (int l = 0; l < config.layers; ++l) {
    Block& block = blocks_[static_cast<std::size_t>(l)];
    block.ln1_gamma = Matrix::full(1, h, 1.0f);
    block.ln1_beta = Matrix::zeros(1, h);
    block.ln2_gamma = Matrix::full(1, h, 1.0f);
    block.ln2_beta = Matrix::zeros(1, h);
    {
      const mem::ArenaScope grads_scope(mem::Tag::kGrads);
      block.ln1_gamma_grad = Matrix::zeros(1, h);
      block.ln1_beta_grad = Matrix::zeros(1, h);
      block.ln2_gamma_grad = Matrix::zeros(1, h);
      block.ln2_beta_grad = Matrix::zeros(1, h);
    }
    const std::uint64_t ls = hash_combine(config.seed, l);
    block.qkv = std::make_unique<core::TensorParallelFC>(
        grid, h, 3 * h, hash_combine(ls, 1), fc);
    block.attn_out = std::make_unique<core::TensorParallelFC>(
        grid, h, h, hash_combine(ls, 2), fc);
    block.mlp_up = std::make_unique<core::TensorParallelFC>(
        grid, h, 4 * h, hash_combine(ls, 3), fc);
    block.mlp_down = std::make_unique<core::TensorParallelFC>(
        grid, 4 * h, h, hash_combine(ls, 4), fc);
  }

  final_gamma_ = Matrix::full(1, h, 1.0f);
  final_beta_ = Matrix::zeros(1, h);
  lm_head_ = Matrix::randn(h, static_cast<std::size_t>(config.vocab), rng,
                           0.0f, config.init_std);
  {
    const mem::ArenaScope grads_scope(mem::Tag::kGrads);
    final_gamma_grad_ = Matrix::zeros(1, h);
    final_beta_grad_ = Matrix::zeros(1, h);
    lm_head_grad_ = Matrix::zeros(h, static_cast<std::size_t>(config.vocab));
  }
}

std::uint64_t GPTModel::parameter_count() const {
  const auto h = static_cast<std::uint64_t>(config_.hidden);
  const auto v = static_cast<std::uint64_t>(config_.vocab);
  const auto s = static_cast<std::uint64_t>(config_.max_seq);
  const std::uint64_t per_block = 12 * h * h + 4 * h;  // FCs + 2 layernorms
  return static_cast<std::uint64_t>(config_.layers) * per_block + v * h +
         s * h + 2 * h + h * v;
}

void GPTModel::register_params(Adam& adam) {
  adam.add_param(&tok_emb_, &tok_emb_grad_);
  adam.add_param(&pos_emb_, &pos_emb_grad_);
  for (Block& block : blocks_) {
    adam.add_param(&block.ln1_gamma, &block.ln1_gamma_grad);
    adam.add_param(&block.ln1_beta, &block.ln1_beta_grad);
    adam.add_param(&block.ln2_gamma, &block.ln2_gamma_grad);
    adam.add_param(&block.ln2_beta, &block.ln2_beta_grad);
    for (auto* fc : block.fcs()) {
      adam.add_param(&fc->mutable_weight_shard(),
                     &fc->mutable_weight_grad_shard());
    }
  }
  adam.add_param(&final_gamma_, &final_gamma_grad_);
  adam.add_param(&final_beta_, &final_beta_grad_);
  adam.add_param(&lm_head_, &lm_head_grad_);
}

void GPTModel::for_each_parameter(const std::function<void(Matrix&)>& fn) {
  // Must mirror register_params() exactly: checkpoints serialize tensors in
  // this order and restore them positionally.
  fn(tok_emb_);
  fn(pos_emb_);
  for (Block& block : blocks_) {
    fn(block.ln1_gamma);
    fn(block.ln1_beta);
    fn(block.ln2_gamma);
    fn(block.ln2_beta);
    for (auto* fc : block.fcs()) {
      fn(fc->mutable_weight_shard());
    }
  }
  fn(final_gamma_);
  fn(final_beta_);
  fn(lm_head_);
}

void GPTModel::for_each_gradient(const std::function<void(Matrix&)>& fn) {
  // Mirrors for_each_parameter(): same tensors, gradient side.
  fn(tok_emb_grad_);
  fn(pos_emb_grad_);
  for (Block& block : blocks_) {
    fn(block.ln1_gamma_grad);
    fn(block.ln1_beta_grad);
    fn(block.ln2_gamma_grad);
    fn(block.ln2_beta_grad);
    for (auto* fc : block.fcs()) {
      fn(fc->mutable_weight_grad_shard());
    }
  }
  fn(final_gamma_grad_);
  fn(final_beta_grad_);
  fn(lm_head_grad_);
}

std::vector<GPTModel::ParamSpec> GPTModel::parameter_specs() const {
  // Must mirror register_params() exactly, like for_each_parameter().
  std::vector<ParamSpec> specs;
  const auto replicated = [&](const Matrix& m) {
    specs.push_back({false, m.rows(), m.cols()});
  };
  replicated(tok_emb_);
  replicated(pos_emb_);
  for (const Block& block : blocks_) {
    replicated(block.ln1_gamma);
    replicated(block.ln1_beta);
    replicated(block.ln2_gamma);
    replicated(block.ln2_beta);
    for (const auto* fc : block.fcs()) {
      // gx == gy == 1 (the supported grid family): the shard is a row chunk
      // of the full (in x out) weight, partitioned over Z.
      specs.push_back({true, fc->in_features(), fc->out_features()});
    }
  }
  replicated(final_gamma_);
  replicated(final_beta_);
  replicated(lm_head_);
  return specs;
}

Matrix GPTModel::embed(const std::vector<TokenSeq>& sequences,
                       std::size_t offset, std::size_t len) {
  const auto h = static_cast<std::size_t>(config_.hidden);
  Matrix x(sequences.size() * len, h);
  for (std::size_t s = 0; s < sequences.size(); ++s) {
    AXONN_CHECK_MSG(sequences[s].size() >= offset + len,
                    "sequence shorter than requested input length");
    AXONN_CHECK_MSG(offset + len <= static_cast<std::size_t>(config_.max_seq),
                    "sequence longer than max_seq");
    for (std::size_t i = 0; i < len; ++i) {
      const auto token = static_cast<std::size_t>(sequences[s][offset + i]);
      AXONN_CHECK(token < tok_emb_.rows());
      float* row = x.row(s * len + i);
      const float* te = tok_emb_.row(token);
      const float* pe = pos_emb_.row(offset + i);
      for (std::size_t c = 0; c < h; ++c) {
        row[c] = te[c] + pe[c];
      }
    }
  }
  return x;
}

Matrix GPTModel::attention_forward(const Matrix& qkv_out, std::size_t batch,
                                   std::size_t offset,
                                   Matrix* kv_cache) const {
  obs::SpanGuard span(obs::kCatCompute, "attn_fwd");
  const auto h = static_cast<std::size_t>(config_.hidden);
  const auto dh = static_cast<std::size_t>(head_dim_);
  const auto heads = static_cast<std::size_t>(config_.heads);
  const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  const std::size_t len = qkv_out.rows() / batch;
  const std::size_t keys = offset + len;
  // Where K and V live: this call's own [Q | K | V] rows, or the decode
  // cache's [K | V] rows, which this call's rows extend.
  const Matrix* kv = &qkv_out;
  std::size_t k_col = h;
  if (kv_cache != nullptr) {
    for (std::size_t i = 0; i < len; ++i) {
      std::copy(qkv_out.row(i) + h, qkv_out.row(i) + 3 * h,
                kv_cache->row(offset + i));
    }
    kv = kv_cache;
    k_col = 0;
  }
  Matrix concat(qkv_out.rows(), h);
  for (std::size_t s = 0; s < batch; ++s) {
    const Range rows{s * len, (s + 1) * len};
    const Range key_rows{s * keys, (s + 1) * keys};
    for (std::size_t head = 0; head < heads; ++head) {
      const Range q_cols{head * dh, (head + 1) * dh};
      const Matrix q = qkv_out.block(rows, q_cols);
      const Matrix k = kv->block(key_rows, shifted(q_cols, k_col));
      const Matrix v = kv->block(key_rows, shifted(q_cols, k_col + h));
      const Matrix p = causal_attention_probs(q, k, inv_sqrt, offset);
      concat.set_block(rows, q_cols, tiled_product(GemmMode::kNN, 1.0f, p, v));
    }
  }
  return concat;
}

Matrix GPTModel::attention_backward(const Matrix& qkv_out,
                                    const Matrix& d_concat, std::size_t batch,
                                    std::size_t input_len) const {
  obs::SpanGuard span(obs::kCatCompute, "attn_bwd");
  const auto h = static_cast<std::size_t>(config_.hidden);
  const auto dh = static_cast<std::size_t>(head_dim_);
  const auto heads = static_cast<std::size_t>(config_.heads);
  const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  Matrix d_qkv(batch * input_len, 3 * h);
  for (std::size_t s = 0; s < batch; ++s) {
    const Range rows{s * input_len, (s + 1) * input_len};
    for (std::size_t head = 0; head < heads; ++head) {
      const Range q_cols{head * dh, (head + 1) * dh};
      const Range k_cols = shifted(q_cols, h);
      const Range v_cols = shifted(q_cols, 2 * h);
      const Matrix q = qkv_out.block(rows, q_cols);
      const Matrix k = qkv_out.block(rows, k_cols);
      const Matrix v = qkv_out.block(rows, v_cols);
      const Matrix d_ctx = d_concat.block(rows, q_cols);
      // The forward's exact call on the forward's inputs: bitwise its P.
      const Matrix p = causal_attention_probs(q, k, inv_sqrt, 0);
      // ctx = P V:  dP = dctx V^T,  dV = P^T dctx.
      d_qkv.set_block(rows, v_cols,
                      tiled_product(GemmMode::kTN, 1.0f, p, d_ctx));
      const Matrix ds = softmax_rows_backward(
          tiled_product(GemmMode::kNT, 1.0f, d_ctx, v), p);
      // S = Q K^T / sqrt(dh):  dQ = dS K / sqrt(dh),  dK = dS^T Q / sqrt(dh).
      // Masked entries have P = 0, hence dS = 0, and add nothing.
      d_qkv.set_block(rows, q_cols,
                      tiled_product(GemmMode::kNN, inv_sqrt, ds, k));
      d_qkv.set_block(rows, k_cols,
                      tiled_product(GemmMode::kTN, inv_sqrt, ds, q));
    }
  }
  return d_qkv;
}

Matrix GPTModel::forward_blocks(Matrix x, std::size_t batch,
                                std::size_t offset,
                                std::vector<BlockCache>* caches,
                                std::vector<Matrix>* kv_cache) {
  if (caches) caches->assign(blocks_.size(), BlockCache());
  if (config_.overlap_collectives && kv_cache == nullptr) {
    // OAG (§V-D): enqueue every weight all-gather in topological order
    // before compute starts; the progress thread streams them while the
    // compute below proceeds. Decoding gathers blocking instead, at the
    // prefill's first use of each layer: it gathers once per call, and a
    // prefetch's shard snapshot would stay resident beside the gathered
    // weights for the whole call.
    for (Block& block : blocks_) {
      for (auto* fc : block.fcs()) fc->begin_weight_gather();
    }
  }
  for (std::size_t l = 0; l < blocks_.size(); ++l) {
    Block& block = blocks_[l];
    BlockCache scratch;
    BlockCache& c = caches ? (*caches)[l] : scratch;

    // The FC sublayers keep their own inputs for dW; the cache keeps only
    // what the layernorm, attention and GELU backward passes read.
    c.qkv_out = block.qkv->forward(layernorm(
        x, row_vector(block.ln1_gamma), row_vector(block.ln1_beta), c.ln1));
    x.add_inplace(block.attn_out->forward(attention_forward(
        c.qkv_out, batch, offset, kv_cache ? &(*kv_cache)[l] : nullptr)));
    c.mlp_pre_gelu = block.mlp_up->forward(layernorm(
        x, row_vector(block.ln2_gamma), row_vector(block.ln2_beta), c.ln2));
    x.add_inplace(block.mlp_down->forward(gelu(c.mlp_pre_gelu)));
  }
  return x;
}

Matrix GPTModel::forward_logits(const std::vector<TokenSeq>& sequences,
                                std::size_t input_len,
                                std::vector<BlockCache>* caches,
                                LayerNormCache* final_ln_cache,
                                Matrix* final_out) {
  AXONN_CHECK(!sequences.empty());
  // All forward-pass tensors are activations unless an inner scope (packed
  // panels, comm staging) says otherwise. Covers evaluate/probe callers that
  // bypass train_step.
  const mem::ArenaScope scope(mem::Tag::kActivations);
  const Matrix x = forward_blocks(embed(sequences, 0, input_len),
                                  sequences.size(), 0, caches, nullptr);
  return lm_head_forward(x, final_ln_cache, final_out);
}

Matrix GPTModel::lm_head_forward(const Matrix& x,
                                 LayerNormCache* final_ln_cache,
                                 Matrix* final_out) const {
  LayerNormCache scratch;
  LayerNormCache& flc = final_ln_cache ? *final_ln_cache : scratch;
  Matrix normed = layernorm(x, row_vector(final_gamma_),
                            row_vector(final_beta_), flc);
  if (final_out) *final_out = normed;
  return lm_head_gemm(GemmMode::kNN, normed, lm_head_);
}

Matrix GPTModel::lm_head_gemm(GemmMode mode, const Matrix& a,
                              const Matrix& b) const {
  obs::SpanGuard span(obs::kCatCompute, "lm_head_gemm");
  return tiled_product(mode, 1.0f, a, b, config_.mixed_precision);
}

float GPTModel::train_step(const std::vector<TokenSeq>& sequences,
                           const GoldfishConfig* goldfish) {
  // One flight-recorder iteration window per training step (Fig. 5). The
  // whole step runs under the activations tag: forward caches, backward d_*
  // temporaries, per-head attention tiles — anything a longer-lived
  // subsystem owns re-tags itself in an inner scope.
  obs::IterationScope iteration;
  const mem::ArenaScope scope(mem::Tag::kActivations);
  AXONN_CHECK(!sequences.empty());
  const std::size_t full_len = sequences.front().size();
  for (const auto& seq : sequences) {
    AXONN_CHECK_MSG(seq.size() == full_len,
                    "train_step expects equal-length sequences");
  }
  const std::size_t input_len = full_len - 1;
  const std::size_t batch = sequences.size();

  invalidate_fc_caches();

  std::vector<BlockCache> caches;
  Matrix final_out;
  LayerNormCache final_ln;
  const Matrix logits =
      forward_logits(sequences, input_len, &caches, &final_ln, &final_out);

  // Targets and (optional) goldfish mask over next-token positions.
  std::vector<std::int32_t> targets(batch * input_len);
  std::vector<std::uint8_t> mask;
  if (goldfish) mask.resize(batch * input_len, 1);
  for (std::size_t s = 0; s < batch; ++s) {
    std::vector<std::uint8_t> doc_mask;
    if (goldfish) doc_mask = goldfish_mask(sequences[s], *goldfish);
    for (std::size_t i = 0; i < input_len; ++i) {
      targets[s * input_len + i] = sequences[s][i + 1];
      if (goldfish) {
        mask[s * input_len + i] = doc_mask[i + 1];
      }
    }
  }

  Matrix dlogits;
  const float loss = cross_entropy(logits, targets, mask, dlogits);

  // ---- backward -----------------------------------------------------------
  // LM head.
  Matrix d_normed = lm_head_gemm(GemmMode::kNT, dlogits, lm_head_);
  lm_head_grad_.add_inplace(lm_head_gemm(GemmMode::kTN, final_out, dlogits));
  std::vector<float> dgamma, dbeta;
  Matrix dx = layernorm_backward(d_normed, final_ln,
                                 row_vector(final_gamma_), dgamma, dbeta);
  accumulate_row(final_gamma_grad_, dgamma);
  accumulate_row(final_beta_grad_, dbeta);

  // Transformer blocks in reverse.
  for (std::size_t l = blocks_.size(); l-- > 0;) {
    Block& block = blocks_[l];
    BlockCache& c = caches[l];

    Matrix d_after_attn = dx;  // residual branch
    // MLP branch.
    Matrix d_mlp_act = block.mlp_down->backward(dx);
    Matrix d_mlp_pre = gelu_backward(d_mlp_act, c.mlp_pre_gelu);
    Matrix d_ln2_out = block.mlp_up->backward(d_mlp_pre);
    std::vector<float> dg2, db2;
    Matrix d_ln2_in = layernorm_backward(d_ln2_out, c.ln2,
                                         row_vector(block.ln2_gamma), dg2, db2);
    accumulate_row(block.ln2_gamma_grad, dg2);
    accumulate_row(block.ln2_beta_grad, db2);
    d_after_attn.add_inplace(d_ln2_in);

    // Attention branch.
    Matrix d_concat = block.attn_out->backward(d_after_attn);
    Matrix d_qkv = attention_backward(c.qkv_out, d_concat, batch, input_len);
    Matrix d_ln1_out = block.qkv->backward(d_qkv);
    std::vector<float> dg1, db1;
    Matrix d_ln1_in = layernorm_backward(d_ln1_out, c.ln1,
                                         row_vector(block.ln1_gamma), dg1, db1);
    accumulate_row(block.ln1_gamma_grad, dg1);
    accumulate_row(block.ln1_beta_grad, db1);

    dx = d_after_attn;
    dx.add_inplace(d_ln1_in);
  }

  // Embedding scatter-add.
  for (std::size_t s = 0; s < batch; ++s) {
    for (std::size_t i = 0; i < input_len; ++i) {
      const auto token = static_cast<std::size_t>(sequences[s][i]);
      const float* src = dx.row(s * input_len + i);
      float* te = tok_emb_grad_.row(token);
      float* pe = pos_emb_grad_.row(i);
      for (std::size_t col = 0; col < tok_emb_.cols(); ++col) {
        te[col] += src[col];
        pe[col] += src[col];
      }
    }
  }

  sync_gradients();
  return loss;
}

float GPTModel::evaluate_loss(const std::vector<TokenSeq>& sequences) {
  AXONN_CHECK(!sequences.empty());
  invalidate_fc_caches();
  const std::size_t input_len = sequences.front().size() - 1;
  const Matrix logits =
      forward_logits(sequences, input_len, nullptr, nullptr, nullptr);
  std::vector<std::int32_t> targets(sequences.size() * input_len);
  for (std::size_t s = 0; s < sequences.size(); ++s) {
    for (std::size_t i = 0; i < input_len; ++i) {
      targets[s * input_len + i] = sequences[s][i + 1];
    }
  }
  return cross_entropy_loss(logits, targets, {});
}

Matrix GPTModel::logits(const TokenSeq& tokens) {
  invalidate_fc_caches();
  return forward_logits({tokens}, tokens.size(), nullptr, nullptr, nullptr);
}

TokenSeq GPTModel::greedy_generate(const TokenSeq& prompt, int new_tokens,
                                   Matrix* step_logits) {
  AXONN_CHECK(!prompt.empty() && new_tokens >= 0);
  const auto steps = static_cast<std::size_t>(new_tokens);
  const auto max_seq = static_cast<std::size_t>(config_.max_seq);
  // A step's token is fed back only by the next step, so the last position
  // embedded is prompt.size() + steps - 2.
  AXONN_CHECK_MSG(prompt.size() + steps <= max_seq + 1,
                  "greedy generation would run past max_seq");
  invalidate_fc_caches();
  const mem::ArenaScope scope(mem::Tag::kActivations);
  const auto h = static_cast<std::size_t>(config_.hidden);
  std::vector<Matrix> kv_cache;  // per block: [K | V] of positions so far
  for (std::size_t l = 0; l < blocks_.size(); ++l) {
    kv_cache.emplace_back(max_seq, 2 * h);
  }
  if (step_logits) {
    *step_logits = Matrix(steps, static_cast<std::size_t>(config_.vocab));
  }
  TokenSeq sequence = prompt;
  std::size_t cached = 0;  // positions whose K and V are in kv_cache
  for (std::size_t step = 0; step < steps; ++step) {
    // Step 0 runs the whole prompt; every later step only the newest token.
    const std::size_t len = sequence.size() - cached;
    const Matrix x = forward_blocks(embed({sequence}, cached, len), 1, cached,
                                    nullptr, &kv_cache);
    const Matrix logits =
        lm_head_forward(x.block({len - 1, len}, {0, h}), nullptr, nullptr);
    if (step_logits) {
      std::copy(logits.row(0), logits.row(0) + logits.cols(),
                step_logits->row(step));
    }
    cached = sequence.size();
    sequence.push_back(
        static_cast<std::int32_t>(argmax(logits.row(0), logits.cols())));
  }
  return sequence;
}

double GPTModel::probe_accuracy(const TokenSeq& document, int probe_tokens) {
  AXONN_CHECK(probe_tokens > 0 &&
              document.size() > static_cast<std::size_t>(probe_tokens));
  const Matrix next =
      logits(TokenSeq(document.begin(), document.end() - 1));
  const std::size_t probe_begin =
      document.size() - static_cast<std::size_t>(probe_tokens);
  int correct = 0;
  for (std::size_t pos = probe_begin; pos < document.size(); ++pos) {
    // logits[i] predicts token i+1.
    const std::size_t best = argmax(next.row(pos - 1), next.cols());
    if (static_cast<std::int32_t>(best) == document[pos]) ++correct;
  }
  return static_cast<double>(correct) / probe_tokens;
}

bool GPTModel::exact_match(const TokenSeq& document, int probe_tokens) {
  // Greedy generation reproduces the document iff, at every probe position,
  // the argmax given the *correct* prefix is the true next token (if all
  // argmaxes are correct, greedy decoding sees exactly the true prefix at
  // every step). One teacher-forced forward pass therefore decides the
  // §VIII-B exact-match event without token-by-token generation.
  return probe_accuracy(document, probe_tokens) == 1.0;
}

void GPTModel::invalidate_fc_caches() {
  for (Block& block : blocks_) {
    for (auto* fc : block.fcs()) fc->invalidate_weight_cache();
  }
}

void GPTModel::zero_grad() {
  tok_emb_grad_.set_zero();
  pos_emb_grad_.set_zero();
  for (Block& block : blocks_) {
    block.ln1_gamma_grad.set_zero();
    block.ln1_beta_grad.set_zero();
    block.ln2_gamma_grad.set_zero();
    block.ln2_beta_grad.set_zero();
    for (auto* fc : block.fcs()) fc->zero_grad();
  }
  final_gamma_grad_.set_zero();
  final_beta_grad_.set_zero();
  lm_head_grad_.set_zero();
}

void GPTModel::all_reduce_replicated(Matrix& grad) {
  if (grid_.shape().gz > 1) {
    grid_.z_comm().all_reduce(std::span<float>(grad.storage()),
                              comm::ReduceOp::kSum);
  }
  if (grid_.shape().gdata > 1) {
    grid_.data_comm().all_reduce(std::span<float>(grad.storage()),
                                 comm::ReduceOp::kSum);
  }
}

void GPTModel::sync_gradients() {
  const int replicas = grid_.shape().gz * grid_.shape().gdata;
  const float inv = 1.0f / static_cast<float>(replicas);

  for (Block& block : blocks_) {
    for (auto* fc : block.fcs()) {
      fc->finish_gradients();
      Matrix& grad = fc->mutable_weight_grad_shard();
      if (grid_.shape().gdata > 1) {
        grid_.data_comm().all_reduce(std::span<float>(grad.storage()),
                                     comm::ReduceOp::kSum);
      }
      // The Z reduce-scatter already summed over the Z data shards.
      grad.scale_inplace(inv);
    }
    all_reduce_replicated(block.ln1_gamma_grad);
    all_reduce_replicated(block.ln1_beta_grad);
    all_reduce_replicated(block.ln2_gamma_grad);
    all_reduce_replicated(block.ln2_beta_grad);
    block.ln1_gamma_grad.scale_inplace(inv);
    block.ln1_beta_grad.scale_inplace(inv);
    block.ln2_gamma_grad.scale_inplace(inv);
    block.ln2_beta_grad.scale_inplace(inv);
  }
  all_reduce_replicated(tok_emb_grad_);
  all_reduce_replicated(pos_emb_grad_);
  all_reduce_replicated(final_gamma_grad_);
  all_reduce_replicated(final_beta_grad_);
  all_reduce_replicated(lm_head_grad_);
  tok_emb_grad_.scale_inplace(inv);
  pos_emb_grad_.scale_inplace(inv);
  final_gamma_grad_.scale_inplace(inv);
  final_beta_grad_.scale_inplace(inv);
  lm_head_grad_.scale_inplace(inv);
}

}  // namespace axonn::train
