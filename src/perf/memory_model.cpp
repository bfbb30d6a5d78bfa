#include "axonn/perf/memory_model.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "axonn/base/error.hpp"
#include "axonn/base/log.hpp"
#include "axonn/base/metrics.hpp"

namespace axonn::perf {

namespace {

constexpr double kFloatBytes = 4.0;

double ru16(double n) { return std::ceil(n / 16.0) * 16.0; }

/// (in, out) of a weight product: x (R x in) times W (in x out).
struct FcDims {
  double in = 0, out = 0;
};
/// The four FC sublayers of one transformer block, then the LM head.
std::array<FcDims, 5> weight_products(double h, double v) {
  return {{{h, 3 * h}, {h, h}, {h, 4 * h}, {4 * h, h}, {h, v}}};
}

}  // namespace

MemoryPrediction predict_memory(const MemoryModelConfig& config) {
  const double h = config.hidden;
  const double v = config.vocab;
  const double s = config.max_seq;
  const double L = config.layers;
  const double B = config.batch;
  const double len = config.input_len;
  const double R = B * len;  // token rows per rank per step
  const double W = static_cast<double>(config.gz) * config.gdata;
  const double gdata = config.gdata;
  const double gz = config.gz;

  // Parameter inventory (elements), mirroring GPTModel's constructor:
  // replicated tensors live whole on every rank; the FC weights are row
  // chunks over the Z group, so one data replica's shards sum to the full
  // weights and the process holds gdata copies of them.
  const double p_repl = v * h + s * h + L * 4 * h + 2 * h + h * v;
  const double p_fc = L * 12 * h * h;  // sum of in*out over all FCs
  // Elements held once per rank (replicated) + once per data replica
  // (Z-sharded): the shape every parameter-sized subsystem shares.
  const double param_elems = W * p_repl + gdata * p_fc;

  MemoryPrediction pred;
  const auto set = [&pred](mem::Tag tag, double bytes) {
    pred.tag_bytes[static_cast<std::size_t>(tag)] = bytes;
  };

  // -- weights (fc_layer.cpp, gpt_model.cpp ctor) ---------------------------
  // Steady state per rank: the parameter tensors themselves plus one full
  // gathered weight block per FC (cached_weight_block_). OAG adds a
  // shard-sized send snapshot (prefetch_send_buffer_) and, at the adoption
  // instant, the freshly gathered block coexists with the block it replaces
  // — the double-buffer peak.
  const double max_fc_block = 4 * h * h;  // mlp_up / mlp_down, the largest
  double weight_elems = param_elems + W * p_fc;
  if (config.overlap_collectives) {
    weight_elems += gdata * p_fc + W * p_fc;
  } else {
    // gather_full_weights() constructs the replacement block before the
    // move-assignment frees the old one, so each per-step re-gather briefly
    // doubles that FC's block; the peak is the largest FC's block, per rank.
    weight_elems += W * max_fc_block;
  }
  set(mem::Tag::kWeights, kFloatBytes * weight_elems);

  // -- grads / adam (gpt_model.cpp ctor, adam.cpp add_param) ----------------
  // One gradient tensor per parameter; two Adam moments per parameter.
  set(mem::Tag::kGrads, kFloatBytes * param_elems);
  set(mem::Tag::kAdam, 2 * kFloatBytes * param_elems);

  // -- activations (gpt_model.cpp train_step, fc_layer.cpp) -----------------
  // Peak is in a block's backward iteration: every block's forward cache is
  // still retained (caches are freed only when train_step returns), the FC
  // layers hold their cached inputs and dW send buffers, and the backward
  // working set of one block is live.
  //
  //   per-block cache: ln1.normalized(Rh) + qkv_out(3Rh) +
  //     ln2.normalized(Rh) + mlp_pre_gelu(4Rh) = 9Rh. Attention
  //     probabilities are recomputed in backward, not cached.
  //   per-block FC state: cached_input_ (ln1_out + attn_concat + ln2_out +
  //     mlp_act = 7Rh) and rs_send_buffer_ (sum in*out = 12h^2).
  //   top level: final_out + the final layernorm's normalized + d_normed =
  //     3Rh and logits + dlogits = 2Rv, beside either the lm_head dW GEMM
  //     temporary (hv) or one block's backward set.
  //   block backward set: dx + d_after_attn + d_mlp_act(4) + d_mlp_pre(4)
  //     + d_ln2_out + d_ln2_in + d_concat + d_qkv(3) = 16Rh, plus the
  //     largest of what follows: attention backward's per-head transient
  //     (one head's Q, K, V and dctx slices, 4 len*dh, beside P, dP and dS,
  //     3 len^2); qkv's backward, whose dI (Rh) is live while its new dW
  //     GEMM output (3h^2) is built before the rs_send_buffer_ it replaces
  //     is freed; d_ln1_out + d_ln1_in (2Rh). The same replacement in
  //     mlp_up's backward peaks at 10Rh + dI(Rh) + dW(4h^2).
  const double dh = h / config.heads;
  const double attn_transient = 4 * len * dh + 3 * len * len;
  const double block_backward =
      std::max(16 * R * h + std::max({2 * R * h, attn_transient,
                                      R * h + 3 * h * h}),
               11 * R * h + 4 * h * h);
  const double act_elems = L * (16 * R * h + 12 * h * h) + 3 * R * h +
                           2 * R * v + std::max(block_backward, h * v);
  set(mem::Tag::kActivations, kFloatBytes * W * act_elems);

  // -- packed panels (gemm_tiled.cpp) ---------------------------------------
  // Every GPT product runs on the tiled kernel. gemm_tiled() packs op(B)
  // (k x ru16(n)) per call and frees it on return; beside it each lane that
  // gets a task holds an A-pack of its largest block, ru6(min(m, kBlockM =
  // 96)) x min(k, kBlockK = 256). The peak is the largest call over the
  // step's products, op(A) (m x k) times op(B) (k x n):
  //   FC sublayers and LM head, x (R x in) times W (in x out): forward
  //     (R, in, out), dI (R, out, in), dW (in, R, out);
  //   attention, per head: Q K^T and dctx V^T (len, dh, len), and P V,
  //     P^T dctx, dS K and dS^T Q (len, len, dh).
  const auto packed_call = [&](double m, double k, double n) {
    const double tasks = std::ceil(m / 96.0) * std::ceil(ru16(n) / 128.0);
    const double lanes = std::min<double>(config.gemm_lanes, tasks);
    const double a_pack = std::ceil(std::min(m, 96.0) / 6.0) * 6.0 *
                          std::min(k, 256.0);
    return k * ru16(n) + lanes * a_pack;
  };
  double packed = std::max(packed_call(len, dh, len), packed_call(len, len, dh));
  for (const FcDims& fc : weight_products(h, v)) {
    packed = std::max({packed, packed_call(R, fc.in, fc.out),
                       packed_call(R, fc.out, fc.in),
                       packed_call(fc.in, R, fc.out)});
  }
  set(mem::Tag::kPackedPanels, kFloatBytes * W * packed);

  // -- comm buffers (fc_layer.cpp backward) ---------------------------------
  // One shard-sized reduce-scatter receive staging buffer per FC per rank;
  // shards over one data replica sum to the full weights. Each backward
  // rebuilds rs_recv_buffer_ with a fresh Matrix while the old one is still
  // alive — the same re-gather double-buffer transient as the weight cache,
  // shard-sized. Ring segment frames (thread_comm.cpp) only materialize on
  // multi-rank communicators and are transport-internal — at gz == gdata
  // == 1 this term is exact, beyond that it is a lower bound.
  set(mem::Tag::kCommBuffers,
      kFloatBytes * (gdata * p_fc + W * max_fc_block / gz));

  // -- journal (sentinel.cpp, replica.cpp) ----------------------------------
  // One sentinel snapshot = weights + both Adam moments = 3x the parameter
  // elements; the deque briefly holds depth + 1 snapshots while a push
  // displaces the oldest. Replica blobs serialize the same tensors at 4
  // bytes each plus ~2 KiB of section framing, two steps deep per slot.
  double journal_bytes = 0;
  if (config.journal_depth > 0) {
    journal_bytes += (config.journal_depth + 1) * 3 * kFloatBytes * param_elems;
  }
  if (config.replica_slots > 0) {
    const double blob =
        3 * kFloatBytes * (p_repl + p_fc / gz) + 2048.0;
    journal_bytes += config.replica_slots * 2.0 * blob;
  }
  set(mem::Tag::kJournal, journal_bytes);

  return pred;
}

// ---------------------------------------------------------------------------
// MemoryModelChecker
// ---------------------------------------------------------------------------

namespace {

namespace metrics = obs::metrics;

struct CheckGauges {
  metrics::Gauge predicted;
  metrics::Gauge measured;
  metrics::Gauge rel_error;
};

CheckGauges& check_gauges(mem::Tag tag) {
  static auto* gauges = [] {
    auto* arr = new std::array<CheckGauges*, mem::kNumTags>{};
    for (std::size_t t = 0; t < mem::kNumTags; ++t) {
      const std::string base =
          std::string("memcheck.") + mem::to_string(static_cast<mem::Tag>(t));
      (*arr)[t] = new CheckGauges{
          metrics::Gauge(base + ".predicted_bytes",
                         "MemoryModel predicted peak bytes for this tag"),
          metrics::Gauge(base + ".measured_bytes",
                         "arena high-water bytes measured over the window"),
          metrics::Gauge(base + ".rel_error",
                         "relative error |measured-predicted|/max of the two"),
      };
    }
    return arr;
  }();
  return *(*gauges)[static_cast<std::size_t>(tag)];
}

}  // namespace

void MemoryModelChecker::begin() {
  mem::reset_high_water_marks();
  active_ = true;
}

MemoryModelChecker::Result MemoryModelChecker::finish(
    const MemoryPrediction& expected) {
  AXONN_CHECK_MSG(active_, "MemoryModelChecker::finish() without begin()");
  active_ = false;

  Result result;
  for (std::size_t t = 0; t < mem::kNumTags; ++t) {
    const auto tag = static_cast<mem::Tag>(t);
    TagResult& tr = result.tags[t];
    tr.tag = tag;
    tr.predicted_bytes = expected.tag_bytes[t];
    tr.measured_bytes = static_cast<double>(mem::tag_stats(tag).hwm_bytes);
    const double denom = std::max(tr.predicted_bytes, tr.measured_bytes);
    tr.rel_error =
        denom > 0 ? std::abs(tr.measured_bytes - tr.predicted_bytes) / denom
                  : 0.0;
    // Tags with nothing on either side have nothing to validate; kUntagged
    // is ambient noise (metrics shards, registry strings) by construction.
    tr.checked = tag != mem::Tag::kUntagged && denom >= floor_bytes_;
    tr.ok = !tr.checked || tr.rel_error <= tolerance_;
    if (tr.checked) {
      result.worst_rel_error = std::max(result.worst_rel_error, tr.rel_error);
      if (!tr.ok) {
        result.ok = false;
        AXONN_LOG_WARN << "memory model divergence on tag "
                       << mem::to_string(tag) << ": predicted "
                       << tr.predicted_bytes << " B, measured "
                       << tr.measured_bytes << " B (rel error " << tr.rel_error
                       << " > " << tolerance_ << ")";
      }
    }
    const CheckGauges& g = check_gauges(tag);
    g.predicted.set_forced(tr.predicted_bytes);
    g.measured.set_forced(tr.measured_bytes);
    g.rel_error.set_forced(tr.rel_error);
  }
  last_ = result;
  return result;
}

bool append_memcheck_jsonl(const std::string& path,
                           const MemoryModelChecker::Result& result) {
  std::ofstream out(path, std::ios::app);
  if (!out) {
    AXONN_LOG_WARN << "memcheck: cannot open " << path;
    return false;
  }
  for (const auto& tr : result.tags) {
    out << "{\"tag\":\"" << mem::to_string(tr.tag) << "\",\"predicted_bytes\":"
        << tr.predicted_bytes << ",\"measured_bytes\":" << tr.measured_bytes
        << ",\"rel_error\":" << tr.rel_error
        << ",\"checked\":" << (tr.checked ? "true" : "false")
        << ",\"ok\":" << (tr.ok ? "true" : "false") << "}\n";
  }
  out << "{\"summary\":true,\"worst_rel_error\":" << result.worst_rel_error
      << ",\"ok\":" << (result.ok ? "true" : "false") << "}\n";
  return static_cast<bool>(out);
}

}  // namespace axonn::perf
