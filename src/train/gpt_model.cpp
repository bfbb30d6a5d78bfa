#include "axonn/train/gpt_model.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "axonn/base/arena.hpp"
#include "axonn/base/error.hpp"
#include "axonn/base/trace.hpp"

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
  fc.gemm_backend = config.gemm_backend;
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
                       std::size_t input_len) {
  const auto h = static_cast<std::size_t>(config_.hidden);
  Matrix x(sequences.size() * input_len, h);
  for (std::size_t s = 0; s < sequences.size(); ++s) {
    AXONN_CHECK_MSG(sequences[s].size() >= input_len,
                    "sequence shorter than requested input length");
    AXONN_CHECK_MSG(input_len <= static_cast<std::size_t>(config_.max_seq),
                    "sequence longer than max_seq");
    for (std::size_t i = 0; i < input_len; ++i) {
      const auto token = static_cast<std::size_t>(sequences[s][i]);
      AXONN_CHECK(token < tok_emb_.rows());
      float* row = x.row(s * input_len + i);
      const float* te = tok_emb_.row(token);
      const float* pe = pos_emb_.row(i);
      for (std::size_t c = 0; c < h; ++c) {
        row[c] = te[c] + pe[c];
      }
    }
  }
  return x;
}

Matrix GPTModel::attention_forward(const Matrix& qkv_out, std::size_t batch,
                                   std::size_t input_len, BlockCache* cache) {
  obs::SpanGuard span(obs::kCatCompute, "attn_fwd");
  const auto h = static_cast<std::size_t>(config_.hidden);
  const auto dh = static_cast<std::size_t>(head_dim_);
  const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  Matrix concat(batch * input_len, h);
  if (cache) {
    cache->head_p.assign(batch * static_cast<std::size_t>(config_.heads),
                         Matrix());
  }
  for (std::size_t s = 0; s < batch; ++s) {
    const std::size_t base = s * input_len;
    for (int head = 0; head < config_.heads; ++head) {
      const std::size_t q_off = static_cast<std::size_t>(head) * dh;
      const std::size_t k_off = h + q_off;
      const std::size_t v_off = 2 * h + q_off;
      // Scores with causal mask, then row softmax.
      Matrix scores(input_len, input_len);
      for (std::size_t i = 0; i < input_len; ++i) {
        const float* qi = qkv_out.row(base + i) + q_off;
        for (std::size_t j = 0; j < input_len; ++j) {
          if (j > i) {
            scores(i, j) = kNegInf;
            continue;
          }
          const float* kj = qkv_out.row(base + j) + k_off;
          float dot = 0.0f;
          for (std::size_t c = 0; c < dh; ++c) dot += qi[c] * kj[c];
          scores(i, j) = dot * inv_sqrt;
        }
      }
      Matrix p = softmax_rows(scores);
      // ctx = P x V.
      for (std::size_t i = 0; i < input_len; ++i) {
        float* out = concat.row(base + i) + q_off;
        std::fill(out, out + dh, 0.0f);
        for (std::size_t j = 0; j <= i; ++j) {
          const float pij = p(i, j);
          if (pij == 0.0f) continue;
          const float* vj = qkv_out.row(base + j) + v_off;
          for (std::size_t c = 0; c < dh; ++c) out[c] += pij * vj[c];
        }
      }
      if (cache) {
        cache->head_p[s * static_cast<std::size_t>(config_.heads) +
                      static_cast<std::size_t>(head)] = std::move(p);
      }
    }
  }
  return concat;
}

Matrix GPTModel::attention_backward(const BlockCache& cache,
                                    const Matrix& d_concat, std::size_t batch,
                                    std::size_t input_len) {
  obs::SpanGuard span(obs::kCatCompute, "attn_bwd");
  const auto h = static_cast<std::size_t>(config_.hidden);
  const auto dh = static_cast<std::size_t>(head_dim_);
  const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  const Matrix& qkv_out = cache.qkv_out;
  Matrix d_qkv(batch * input_len, 3 * h);
  for (std::size_t s = 0; s < batch; ++s) {
    const std::size_t base = s * input_len;
    for (int head = 0; head < config_.heads; ++head) {
      const std::size_t q_off = static_cast<std::size_t>(head) * dh;
      const std::size_t k_off = h + q_off;
      const std::size_t v_off = 2 * h + q_off;
      const Matrix& p =
          cache.head_p[s * static_cast<std::size_t>(config_.heads) +
                       static_cast<std::size_t>(head)];

      // dP(i,j) = dctx_i . V_j ; dV_j = sum_i P(i,j) dctx_i.
      Matrix dp(input_len, input_len);
      for (std::size_t i = 0; i < input_len; ++i) {
        const float* dctx = d_concat.row(base + i) + q_off;
        for (std::size_t j = 0; j <= i; ++j) {
          const float* vj = qkv_out.row(base + j) + v_off;
          float dot = 0.0f;
          for (std::size_t c = 0; c < dh; ++c) dot += dctx[c] * vj[c];
          dp(i, j) = dot;
          const float pij = p(i, j);
          float* dv = d_qkv.row(base + j) + v_off;
          for (std::size_t c = 0; c < dh; ++c) dv[c] += pij * dctx[c];
        }
      }
      const Matrix ds = softmax_rows_backward(dp, p);
      // dQ_i = inv_sqrt * sum_j dS(i,j) K_j ; dK_j = inv_sqrt * sum_i
      // dS(i,j) Q_i.
      for (std::size_t i = 0; i < input_len; ++i) {
        float* dq = d_qkv.row(base + i) + q_off;
        const float* qi = qkv_out.row(base + i) + q_off;
        for (std::size_t j = 0; j <= i; ++j) {
          const float dsij = ds(i, j) * inv_sqrt;
          if (dsij == 0.0f) continue;
          const float* kj = qkv_out.row(base + j) + k_off;
          float* dk = d_qkv.row(base + j) + k_off;
          for (std::size_t c = 0; c < dh; ++c) {
            dq[c] += dsij * kj[c];
            dk[c] += dsij * qi[c];
          }
        }
      }
    }
  }
  return d_qkv;
}

Matrix GPTModel::forward_blocks(const Matrix& x0, std::size_t batch,
                                std::size_t input_len,
                                std::vector<BlockCache>* caches) {
  if (caches) caches->assign(blocks_.size(), BlockCache());
  if (config_.overlap_collectives) {
    // OAG (§V-D): enqueue every weight all-gather in topological order
    // before compute starts; the progress thread streams them while the
    // compute below proceeds.
    for (Block& block : blocks_) {
      for (auto* fc : block.fcs()) fc->begin_weight_gather();
    }
  }
  Matrix x = x0;
  for (std::size_t l = 0; l < blocks_.size(); ++l) {
    Block& block = blocks_[l];
    BlockCache* cache = caches ? &(*caches)[l] : nullptr;
    BlockCache scratch;
    BlockCache& c = cache ? *cache : scratch;

    c.block_input = x;
    c.ln1_out = layernorm(x, row_vector(block.ln1_gamma),
                          row_vector(block.ln1_beta), c.ln1);
    c.qkv_out = block.qkv->forward(c.ln1_out);
    c.attn_concat = attention_forward(c.qkv_out, batch, input_len, cache);
    Matrix attn_proj = block.attn_out->forward(c.attn_concat);
    c.after_attn = x;
    c.after_attn.add_inplace(attn_proj);
    c.ln2_out = layernorm(c.after_attn, row_vector(block.ln2_gamma),
                          row_vector(block.ln2_beta), c.ln2);
    c.mlp_pre_gelu = block.mlp_up->forward(c.ln2_out);
    const Matrix mlp_act = gelu(c.mlp_pre_gelu);
    Matrix mlp_out = block.mlp_down->forward(mlp_act);
    x = c.after_attn;
    x.add_inplace(mlp_out);
  }
  return x;
}

Matrix GPTModel::forward_logits(const std::vector<TokenSeq>& sequences,
                                std::size_t input_len,
                                std::vector<BlockCache>* caches, Matrix* x0_out,
                                LayerNormCache* final_ln_cache,
                                Matrix* final_in, Matrix* final_out) {
  AXONN_CHECK(!sequences.empty());
  // All forward-pass tensors are activations unless an inner scope (packed
  // panels, comm staging) says otherwise. Covers generate/probe callers that
  // bypass train_step.
  const mem::ArenaScope scope(mem::Tag::kActivations);
  const Matrix x0 = embed(sequences, input_len);
  if (x0_out) *x0_out = x0;
  Matrix x = forward_blocks(x0, sequences.size(), input_len, caches);
  if (final_in) *final_in = x;
  LayerNormCache scratch;
  LayerNormCache& flc = final_ln_cache ? *final_ln_cache : scratch;
  Matrix normed = layernorm(x, row_vector(final_gamma_),
                            row_vector(final_beta_), flc);
  if (final_out) *final_out = normed;
  return lm_head_gemm(GemmMode::kNN, normed, lm_head_);
}

Matrix GPTModel::lm_head_gemm(GemmMode mode, const Matrix& a,
                              const Matrix& b) const {
  return config_.mixed_precision ? gemm_bf16(mode, a, b) : gemm(mode, a, b);
}

float GPTModel::train_step(const std::vector<TokenSeq>& sequences,
                           const GoldfishConfig* goldfish) {
  // One flight-recorder iteration window per training step (Fig. 5). The
  // whole step runs under the activations tag: forward caches, backward d_*
  // temporaries, attention probs — anything a longer-lived subsystem owns
  // re-tags itself in an inner scope.
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
  Matrix x0, final_in, final_out;
  LayerNormCache final_ln;
  const Matrix logits = forward_logits(sequences, input_len, &caches, &x0,
                                       &final_ln, &final_in, &final_out);

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
    Matrix d_qkv = attention_backward(c, d_concat, batch, input_len);
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
      forward_logits(sequences, input_len, nullptr, nullptr, nullptr, nullptr,
                     nullptr);
  std::vector<std::int32_t> targets(sequences.size() * input_len);
  for (std::size_t s = 0; s < sequences.size(); ++s) {
    for (std::size_t i = 0; i < input_len; ++i) {
      targets[s * input_len + i] = sequences[s][i + 1];
    }
  }
  return cross_entropy_loss(logits, targets, {});
}

TokenSeq GPTModel::greedy_generate(const TokenSeq& prompt, int new_tokens) {
  AXONN_CHECK(!prompt.empty());
  invalidate_fc_caches();
  TokenSeq sequence = prompt;
  for (int step = 0; step < new_tokens; ++step) {
    AXONN_CHECK(sequence.size() <= static_cast<std::size_t>(config_.max_seq));
    const Matrix logits = forward_logits({sequence}, sequence.size(), nullptr,
                                         nullptr, nullptr, nullptr, nullptr);
    sequence.push_back(static_cast<std::int32_t>(
        argmax(logits.row(logits.rows() - 1), logits.cols())));
  }
  return sequence;
}

double GPTModel::probe_accuracy(const TokenSeq& document, int probe_tokens) {
  AXONN_CHECK(probe_tokens > 0 &&
              document.size() > static_cast<std::size_t>(probe_tokens));
  invalidate_fc_caches();
  const std::size_t input_len = document.size() - 1;
  const Matrix logits = forward_logits({document}, input_len, nullptr, nullptr,
                                       nullptr, nullptr, nullptr);
  const std::size_t probe_begin =
      document.size() - static_cast<std::size_t>(probe_tokens);
  int correct = 0;
  for (std::size_t pos = probe_begin; pos < document.size(); ++pos) {
    // logits[i] predicts token i+1.
    const std::size_t best = argmax(logits.row(pos - 1), logits.cols());
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
