#pragma once

// Resilient training driver: the supervisor loop that makes the training
// stack survive the fault classes ChaosComm can inject.
//
// One call runs `total_steps` of GPT training across a thread-rank world,
// checkpointing every `checkpoint_every` steps (per-rank files, atomic
// writes, CRC-protected — see checkpoint.hpp). If a rank fails mid-run
// (e.g. an injected RankFailure) the world aborts, every surviving rank
// unblocks, and the driver re-spawns the world via run_ranks, restores the
// latest checkpoint whose files all validate (skipping torn or corrupted
// ones), and replays forward. Because the snapshot is bit-exact and all
// training arithmetic is deterministic, the recovered run finishes with a
// loss bit-identical to an uninterrupted run — the property the end-to-end
// test asserts.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "axonn/base/step_telemetry.hpp"
#include "axonn/comm/chaos_comm.hpp"
#include "axonn/integrity/integrity.hpp"
#include "axonn/sim/grid_shape.hpp"
#include "axonn/train/adam.hpp"
#include "axonn/train/corpus.hpp"
#include "axonn/train/gpt_model.hpp"
#include "axonn/train/sentinel.hpp"

namespace axonn::train {

struct ResilientTrainConfig {
  TinyGPTConfig model;
  sim::GridShape grid{1, 1, 1, 2};  ///< gx == gy == 1 (GPTModel's contract)
  AdamConfig adam;
  CorpusConfig corpus;

  int total_steps = 12;
  int batch_per_rank = 2;
  int checkpoint_every = 4;
  std::string checkpoint_dir;  ///< created if missing

  /// Restart budget: how many failed attempts may be retried before the
  /// driver gives up and rethrows the last failure.
  int max_restarts = 4;

  /// Supervisor restart backoff (full restarts only — in-job elastic
  /// recovery never waits). Attempt k sleeps
  ///   min(cap, base << k) * jitter,   jitter in [0.5, 1.0)
  /// with cap = max(base, 2 s) and the jitter drawn deterministically from
  /// (data_seed, k) so runs are reproducible. base == 0 keeps the legacy
  /// immediate-respawn behavior. Waits are counted in ResilientTrainResult
  /// and the metrics registry (resilient.backoff_waits /
  /// resilient.backoff_wait_ms).
  std::chrono::milliseconds restart_backoff_base{0};

  /// Elastic fault tolerance (DESIGN.md §11). When enabled the driver runs
  /// the world with membership tracking: heartbeats on the comm progress
  /// path detect crashes *and* hangs in-job, survivors reconfigure at a
  /// bumped epoch (hot-swapping a spare into the dead rank's grid slot, or
  /// shrinking gz to the survivor count), and training resumes from the
  /// peer-replicated in-memory checkpoints — no full-world respawn. A
  /// failure the elastic layer cannot absorb (replica lost, below
  /// min_ranks) falls back to the supervisor's disk-checkpoint restart.
  struct ElasticConfig {
    bool enabled = false;
    /// Extra ranks spawned beyond grid.total(); parked until a failure.
    int spares = 0;
    /// Heartbeat staleness threshold for hang detection (0 = crash-only).
    /// Keep generous under sanitizers (TSan slows ranks ~5-15x).
    std::chrono::milliseconds heartbeat_timeout{0};
    /// Shrink gz to the survivor count when no spare is available.
    bool allow_shrink = true;
    /// Smallest world the shrink path may produce.
    int min_ranks = 1;
  };
  ElasticConfig elastic;

  /// Fault injection applied to every rank's world communicator. The crash
  /// fault only fires on the first attempt — a restart models the failed
  /// node being replaced by a healthy one.
  bool enable_chaos = false;
  comm::ChaosConfig chaos;

  /// Collective watchdog budget for the spawned worlds (0 = off).
  std::chrono::milliseconds collective_timeout{0};

  /// Self-healing ring transport for the spawned worlds: CRC-stamped ring
  /// segments with NACK/retransmit under kHeal (see WorldOptions::ring_crc,
  /// DESIGN.md §9). AXONN_INTEGRITY overrides at world construction.
  integrity::IntegrityMode ring_crc = integrity::IntegrityMode::kOff;
  int crc_max_retries = 3;

  /// Step-level health sentinel + in-memory replay (see sentinel.hpp). An
  /// escalation (SdcEscalationError) is handled like a rank failure: the
  /// supervisor restarts from the latest on-disk checkpoint.
  SentinelConfig sentinel;

  /// Straggler policy for the live step telemetry (only consulted when
  /// obs::metrics is enabled, e.g. under a MetricsSession / AXONN_METRICS).
  /// Each healthy step folds a StepTelemetry across ranks; rank 0 streams it
  /// to the metrics session and feeds the StragglerMonitor.
  obs::StragglerMonitor::Config straggler;

  /// Seed for the data-order RNG (part of the checkpointed cursor).
  std::uint64_t data_seed = 0xDA7A0DD5ULL;
};

struct ResilientTrainResult {
  float final_loss = 0.0f;  ///< rank 0's eval loss after the last step
  int restarts = 0;
  std::uint64_t checkpoints_written = 0;  ///< files written across all ranks
  std::uint64_t steps_executed = 0;  ///< rank-0 steps incl. replays
  std::uint64_t step_replays = 0;  ///< rank-0 sentinel rollback+replays
  std::uint64_t telemetry_steps = 0;   ///< StepTelemetry folds performed
  std::vector<int> straggler_ranks;    ///< ranks the monitor flagged (order)

  // Supervisor backoff (satellite of the elastic work; also active for
  // non-elastic configs with restart_backoff_base > 0).
  std::uint64_t backoff_waits = 0;    ///< sleeps taken before restarts
  std::uint64_t backoff_wait_ms = 0;  ///< total milliseconds slept

  // Elastic recovery accounting (all zero unless config.elastic.enabled).
  std::uint64_t epoch_bumps = 0;       ///< world reconfigurations performed
  std::uint64_t spare_swaps = 0;       ///< dead slots refilled by spares
  std::uint64_t shrinks = 0;           ///< reconfigurations that shrank gz
  std::uint64_t replica_pushes = 0;    ///< in-memory snapshot pushes
  std::uint64_t replica_restores = 0;  ///< ranks restored from replicas
  std::uint64_t fenced_messages = 0;   ///< stale-epoch messages dropped
  double recovery_ms = -1.0;  ///< failure -> first post-recovery step (MTTR)
  int final_world_size = 0;   ///< active ranks at finish (shrink visible)
};

/// Runs the supervisor loop to completion (or rethrows after the restart
/// budget is exhausted). Collective: spawns config.grid.total() thread
/// ranks internally.
ResilientTrainResult run_resilient_training(const ResilientTrainConfig& config);

}  // namespace axonn::train
