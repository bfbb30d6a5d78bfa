#pragma once

// Training health sentinel + in-memory step replay — the last line of the
// silent-data-corruption defense (DESIGN.md §9).
//
// ABFT covers the GEMMs and the ring CRC covers the wire, but corruption can
// still land where neither looks: an HBM bit flip in a result buffer after
// delivery, an ALU fault in a non-GEMM op, a bad reduction on one rank. The
// sentinel closes that gap at step granularity: every step it journals the
// full pre-step training state in memory (weights, Adam moments + counter,
// data cursor) into one snapshot it overwrites in place, runs the step, and
// then checks the step's *outputs* — the loss and the synchronized
// gradients — for NaN/inf and for a gradient-norm spike against a running
// EMA. The per-rank verdict is reduced to a world
// consensus with one small all_reduce, so every rank agrees on health and
// acts in lockstep (an unhealthy step on one rank is unhealthy everywhere —
// gradients are already synchronized, so a corrupted contribution has
// poisoned every rank's update anyway).
//
// On an unhealthy step in kHeal mode the sentinel rolls the model, optimizer
// and cursor back to the journal snapshot and the driver replays the step.
// Replay is deterministic-but-not-identical at the fault layer: ChaosComm's
// per-rank collective counters keep advancing, so a one-shot injected fault
// does not re-fire and the replayed step goes through clean. After
// kMaxReplays (sentinel.cpp) consecutive failures of one step it escalates
// with SdcEscalationError, handing control to the PR 1 checkpoint/restart
// supervisor (the fail-stop path). kDetect escalates on first detection;
// kOff disables the sentinel (and its journal) entirely.

#include <cstdint>
#include <vector>

#include "axonn/base/error.hpp"
#include "axonn/comm/communicator.hpp"
#include "axonn/integrity/integrity.hpp"
#include "axonn/tensor/matrix.hpp"
#include "axonn/train/adam.hpp"
#include "axonn/train/checkpoint.hpp"
#include "axonn/train/gpt_model.hpp"

namespace axonn::train {

/// Thrown when the sentinel cannot heal in-run: kDetect saw an unhealthy
/// step, or kHeal exhausted its replay budget. The resilient-training
/// supervisor treats it like any rank failure and restarts from the latest
/// on-disk checkpoint.
class SdcEscalationError : public Error {
 public:
  SdcEscalationError(std::uint64_t step, int replays);
};

struct SentinelConfig {
  /// kOff disables all checks and journaling; kDetect checks and escalates;
  /// kHeal checks, rolls back and replays. Resolved against the
  /// AXONN_INTEGRITY env override at construction.
  integrity::IntegrityMode mode = integrity::IntegrityMode::kOff;
};

class TrainingSentinel {
 public:
  /// `world` carries the consensus all_reduce — pass the (possibly
  /// chaos-wrapped) communicator the training loop itself uses, so fault
  /// schedules see a consistent collective sequence. All references must
  /// outlive the sentinel.
  TrainingSentinel(const SentinelConfig& config, comm::Communicator& world,
                   GPTModel& model, Adam& adam);

  bool enabled() const { return mode_ != integrity::IntegrityMode::kOff; }

  /// Snapshots the pre-step state (weights, Adam moments + step counter,
  /// cursor) over the previous snapshot, reusing its storage. Call before
  /// every train_step. No-op when disabled. Collective-free.
  void journal(const TrainCursor& cursor);

  /// Post-step health check + consensus (one all_reduce over `world`; every
  /// rank must call with its own loss). Healthy: updates the EMA, returns
  /// true. Unhealthy: kDetect throws SdcEscalationError; kHeal rolls back to
  /// the journal snapshot (restoring `cursor`), counts a replay, and
  /// returns false — the caller re-runs the step. Escalates after
  /// kMaxReplays consecutive failures of the same step.
  bool check_step(float loss, TrainCursor& cursor);

  /// Steps replayed so far (rank-local view of a world-consistent count).
  std::uint64_t replays() const { return replays_; }

 private:
  struct Snapshot {
    std::vector<Matrix> weights;  ///< for_each_parameter order
    std::vector<Matrix> m, v;     ///< Adam moments, registration order
    std::int64_t adam_step = 0;
    TrainCursor cursor;
  };

  /// Local health word: [0] = NaN/inf flag (0 or 1), [1] = gradient sumsq.
  void local_health(float loss, double out[2]) const;
  void rollback(TrainCursor& cursor);

  integrity::IntegrityMode mode_;
  comm::Communicator& world_;
  GPTModel& model_;
  Adam& adam_;

  Snapshot journal_;  ///< empty until the first journal() call
  double ema_ = 0.0;
  int healthy_steps_ = 0;  ///< healthy observations so far (arms the EMA)
  std::uint64_t replays_ = 0;
  std::uint64_t failing_step_ = 0;  ///< step of the current failure streak
  int consecutive_failures_ = 0;
};

}  // namespace axonn::train
