#pragma once

// Per-rank memory estimator + high-water cross-validation (DESIGN.md §14).
//
// The comm model (comm_model.hpp) predicts where the *time* goes; this
// header predicts where the *bytes* go, tag by tag, for the tiny-GPT
// training runtime — and then checks itself against what the tracked arena
// (base/arena.hpp) actually measured. The prediction is analytic: every
// term below names a concrete allocation in gpt_model.cpp / fc_layer.cpp /
// adam.cpp / sentinel.cpp, so a divergence means either the model or the
// runtime changed and the other did not follow. That closed loop is the
// memory analogue of CommModelChecker's Eqs. 1-5 validation.
//
// Scope and accuracy: the model covers the gx == gy == 1 grid family the
// GPT runtime supports, counts fp32 Matrix / TrackedVector allocations
// (untracked std::vector scratch is invisible to the arena and therefore
// intentionally out of the model too), and predicts *process-total peak*
// bytes per tag — ranks are threads here, so the arena counters are
// process-wide sums. At world == 1 the prediction is exact up to small
// per-allocation headers; tests pin that configuration and enforce <= 10%
// relative error.

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "axonn/base/arena.hpp"

namespace axonn::perf {

/// Shape of a tiny-GPT training run, mirrored from train::TinyGPTConfig +
/// the step shape (perf cannot depend on train: core links perf for the
/// comm checker, and train links core).
struct MemoryModelConfig {
  // Model shape (train::TinyGPTConfig fields).
  int vocab = 64;
  int max_seq = 64;
  int layers = 2;
  int hidden = 64;
  int heads = 4;
  // Step shape: each rank feeds `batch` sequences of `input_len` tokens
  // (input_len = document length - 1 in train_step terms).
  int batch = 4;
  int input_len = 16;
  // Grid (gx = gy = 1 family).
  int gz = 1;
  int gdata = 1;
  // Runtime knobs that change the allocation picture.
  bool overlap_collectives = false;  ///< OAG double-buffers the weight block
  int gemm_lanes = 1;                ///< concurrent A-pack scratch buffers
  int journal_depth = 0;             ///< sentinel snapshots retained (0 = off)
  int replica_slots = 0;             ///< in-memory checkpoint replicas (0 = off)
};

/// Predicted peak bytes per arena tag over a steady-state training window
/// (model + optimizer constructed, caches warm, >= 1 prior step taken).
struct MemoryPrediction {
  std::array<double, mem::kNumTags> tag_bytes{};

  double of(mem::Tag tag) const {
    return tag_bytes[static_cast<std::size_t>(tag)];
  }
  double total() const {
    double sum = 0;
    for (const double b : tag_bytes) sum += b;
    return sum;
  }
};

/// Evaluates the analytic model. Every term corresponds to a named
/// allocation site; see memory_model.cpp for the inventory.
MemoryPrediction predict_memory(const MemoryModelConfig& config);

/// Compares a MemoryPrediction against the arena's measured high-water
/// marks over a begin()..finish() window.
///
/// begin() resets the per-tag HWMs to the current live bytes, so a window
/// opened at a steady-state point measures "peak bytes while the window was
/// open" per tag — the quantity predict_memory() models. Tags where both
/// sides are < `floor_bytes` are reported but not checked (nothing to
/// validate); a tag the model predicts as zero but that measured above the
/// floor fails the check (the model is missing a subsystem).
class MemoryModelChecker {
 public:
  struct TagResult {
    mem::Tag tag = mem::Tag::kUntagged;
    double predicted_bytes = 0;
    double measured_bytes = 0;
    double rel_error = 0;  ///< |measured - predicted| / max(measured, pred)
    bool checked = false;  ///< above the floor on either side
    bool ok = true;        ///< checked => within tolerance
  };
  struct Result {
    std::array<TagResult, mem::kNumTags> tags{};
    double worst_rel_error = 0;  ///< over checked tags
    bool ok = true;              ///< every checked tag within tolerance

    const TagResult& of(mem::Tag tag) const {
      return tags[static_cast<std::size_t>(tag)];
    }
  };

  explicit MemoryModelChecker(double tolerance = 0.10,
                              double floor_bytes = 64.0 * 1024.0)
      : tolerance_(tolerance), floor_bytes_(floor_bytes) {}

  /// Opens a measurement window: resets every tag's HWM to its live bytes.
  void begin();
  bool active() const { return active_; }

  /// Closes the window: reads the per-tag HWMs, compares them against
  /// `expected`, warns (AXONN_LOG_WARN) on divergence beyond the tolerance,
  /// and mirrors per-tag predictions + relative errors into the metrics
  /// registry (memcheck.<tag>.predicted_bytes / .rel_error gauges).
  Result finish(const MemoryPrediction& expected);

  const Result& last_result() const { return last_; }

 private:
  double tolerance_;
  double floor_bytes_;
  bool active_ = false;
  Result last_;
};

/// Appends one JSON line per tag ({"tag","predicted_bytes","measured_bytes",
/// "rel_error","checked","ok"}) plus a trailing summary line to `path`.
/// Returns false (and logs a warning) on I/O failure.
bool append_memcheck_jsonl(const std::string& path,
                           const MemoryModelChecker::Result& result);

}  // namespace axonn::perf
