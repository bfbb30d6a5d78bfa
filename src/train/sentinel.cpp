#include "axonn/train/sentinel.hpp"

#include <cmath>
#include <span>
#include <string>

#include "axonn/base/arena.hpp"
#include "axonn/base/log.hpp"
#include "axonn/base/trace.hpp"

namespace axonn::train {

namespace {

/// A step is unhealthy when its global gradient sum-of-squares exceeds
/// kSpikeFactor x the EMA of previous healthy steps (or is NaN/inf, or the
/// loss is). 1e3 tolerates two decades of ordinary growth while a
/// high-exponent bit flip overshoots by many more.
constexpr double kSpikeFactor = 1e3;
/// EMA weight of the newest healthy observation.
constexpr double kEmaDecay = 0.5;
/// Healthy steps observed before the spike check arms (the EMA needs
/// samples; the NaN/inf check is always armed).
constexpr int kWarmupSteps = 2;
/// Consecutive failed replays of one step before escalating.
constexpr int kMaxReplays = 2;

std::string escalation_message(std::uint64_t step, int replays) {
  return "sentinel escalation at step " + std::to_string(step) + " after " +
         std::to_string(replays) +
         " replay(s): unhealthy step could not be healed in-run";
}

}  // namespace

SdcEscalationError::SdcEscalationError(std::uint64_t step, int replays)
    : Error(escalation_message(step, replays)) {}

TrainingSentinel::TrainingSentinel(const SentinelConfig& config,
                                   comm::Communicator& world, GPTModel& model,
                                   Adam& adam)
    : mode_(integrity::effective_mode(config.mode)),
      world_(world),
      model_(model),
      adam_(adam) {}

void TrainingSentinel::journal(const TrainCursor& cursor) {
  if (!enabled()) return;
  // The snapshot (weights + both Adam moments, ~3x the parameter bytes) is
  // the journal budget. Copy-assignment reuses each matrix's storage, so
  // only the first call allocates.
  const mem::ArenaScope scope(mem::Tag::kJournal);
  journal_.weights.resize(adam_.num_params());
  journal_.m.resize(adam_.num_params());
  journal_.v.resize(adam_.num_params());
  std::size_t i = 0;
  model_.for_each_parameter([&](Matrix& w) { journal_.weights[i++] = w; });
  for (std::size_t p = 0; p < adam_.num_params(); ++p) {
    journal_.m[p] = adam_.moment1(p);
    journal_.v[p] = adam_.moment2(p);
  }
  journal_.adam_step = adam_.step_count();
  journal_.cursor = cursor;
}

void TrainingSentinel::local_health(float loss, double out[2]) const {
  bool bad = !std::isfinite(loss);
  double sumsq = 0.0;
  model_.for_each_gradient([&](Matrix& g) {
    for (const float v : g.storage()) {
      if (!std::isfinite(v)) bad = true;
      sumsq += static_cast<double>(v) * static_cast<double>(v);
    }
  });
  if (!std::isfinite(sumsq)) bad = true;
  out[0] = bad ? 1.0 : 0.0;
  out[1] = sumsq;
}

bool TrainingSentinel::check_step(float loss, TrainCursor& cursor) {
  if (!enabled()) return true;
  integrity::Counters& ctr = integrity::counters();
  ctr.sentinel_checks.fetch_add(1, std::memory_order_relaxed);

  double local[2];
  local_health(loss, local);
  // Consensus: one small all_reduce; the sum of flags is > 0 iff any rank
  // saw NaN/inf, and the summed sumsq is the global gradient norm² (a NaN
  // contribution propagates through kSum, so it is self-signaling). float on
  // the wire is fine: overflow to inf reads as a spike.
  float word[2] = {static_cast<float>(local[0]),
                   static_cast<float>(local[1])};
  world_.all_reduce(std::span<float>(word, 2), comm::ReduceOp::kSum);

  const double global_sumsq = word[1];
  const bool non_finite = word[0] != 0.0f || !std::isfinite(global_sumsq);
  const bool spike = healthy_steps_ >= kWarmupSteps && ema_ > 0.0 &&
                     global_sumsq > kSpikeFactor * ema_;

  if (!non_finite && !spike) {
    ema_ = healthy_steps_ == 0
               ? global_sumsq
               : (1.0 - kEmaDecay) * ema_ + kEmaDecay * global_sumsq;
    ++healthy_steps_;
    if (consecutive_failures_ > 0) {
      // A previously-unhealthy step replayed clean: the corruption is healed.
      integrity::note_sdc_recovered("sentinel");
      if (obs::enabled()) {
        obs::instant(obs::kCatIntegrity, "sentinel_recovered");
      }
      consecutive_failures_ = 0;
    }
    return true;
  }

  ctr.sentinel_unhealthy.fetch_add(1, std::memory_order_relaxed);
  integrity::note_sdc_detected("sentinel");
  const std::uint64_t step = cursor.step;
  if (consecutive_failures_ > 0 && failing_step_ == step) {
    ++consecutive_failures_;
  } else {
    failing_step_ = step;
    consecutive_failures_ = 1;
  }
  AXONN_LOG_WARN << "sentinel: unhealthy step " << step << " ("
                 << (non_finite ? "non-finite" : "grad-norm spike")
                 << ", grad sumsq " << global_sumsq << ", ema " << ema_
                 << "), failure " << consecutive_failures_;

  if (mode_ == integrity::IntegrityMode::kDetect ||
      journal_.weights.empty() ||
      consecutive_failures_ > kMaxReplays) {
    throw SdcEscalationError(step, consecutive_failures_ - 1);
  }
  rollback(cursor);
  ++replays_;
  ctr.step_replays.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void TrainingSentinel::rollback(TrainCursor& cursor) {
  obs::SpanGuard span;
  if (obs::enabled()) {
    span.open(obs::kCatIntegrity, "step_replay");
  }
  // The snapshot stays as it is — a replay may fail again and restore the
  // same state. for_each_parameter hands out the FC shards via
  // mutable_weight_shard(), which also invalidates the gathered-weight cache,
  // so the replayed forward re-gathers honestly.
  const Snapshot& snap = journal_;
  std::size_t i = 0;
  model_.for_each_parameter([&](Matrix& w) { w = snap.weights[i++]; });
  for (std::size_t p = 0; p < adam_.num_params(); ++p) {
    adam_.moment1(p) = snap.m[p];
    adam_.moment2(p) = snap.v[p];
  }
  adam_.set_step_count(snap.adam_step);
  cursor = snap.cursor;
}

}  // namespace axonn::train
