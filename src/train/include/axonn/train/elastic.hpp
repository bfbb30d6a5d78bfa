#pragma once

// Internal seam between the two recovery drivers of run_resilient_training
// (DESIGN.md §11); not a public API. resilient.cpp owns the disk-restart
// supervisor and RankTrainer, the per-rank training loop both drivers run;
// elastic.cpp owns run_elastic_attempt, which runs that loop once per
// membership epoch with its replica tier and MTTR clock hooked in.

#include <functional>
#include <memory>
#include <mutex>

#include "axonn/comm/chaos_comm.hpp"
#include "axonn/comm/thread_comm.hpp"
#include "axonn/core/grid4d.hpp"
#include "axonn/train/checkpoint.hpp"
#include "axonn/train/resilient.hpp"
#include "axonn/train/telemetry.hpp"

namespace axonn::train {

/// The spawned world's transport options (watchdog, ring CRC) from `config`.
comm::WorldOptions world_options(const ResilientTrainConfig& config);

/// One rank's training stack for one world — a supervisor attempt or an
/// elastic epoch — and the loop that trains it.
class RankTrainer {
 public:
  /// Elastic-only work at two fixed points of run(); the disk-restart driver
  /// passes none.
  struct Hooks {
    std::function<void()> after_step;     ///< after each completed step
    std::function<void()> at_checkpoint;  ///< before each disk checkpoint
  };

  /// Builds the stack on `raw` with `shape` (whose total is raw.size()).
  /// With chaos enabled, `raw` is wrapped in a ChaosComm; the node faults
  /// (crash, hang, one-shot memory corruption) are armed only when
  /// `first_world` is set. Collective-free apart from Grid4D's splits.
  RankTrainer(const ResilientTrainConfig& config, bool first_world,
              comm::Communicator& raw, const sim::GridShape& shape);

  /// Loads this rank's file of the newest step whose every rank file
  /// validates; leaves the fresh state alone when there is none.
  void restore_from_disk();

  /// Trains to config.total_steps — journal, batch, train_step, sentinel,
  /// Adam, cursor, telemetry fold, checkpoint — then evaluates the fixed
  /// eval batch. Rank 0 records into `result` under `result_mutex`.
  void run(const Hooks& hooks, ResilientTrainResult& result,
           std::mutex& result_mutex);

 private:
  std::string checkpoint_path(std::uint64_t step) const;

  // Members are built in declaration order: comm_ before grid_ before model.
  const ResilientTrainConfig& config_;
  std::unique_ptr<comm::ChaosComm> chaos_;
  comm::Communicator& comm_;  ///< chaos_ when set, else the raw comm
  core::Grid4D grid_;

 public:
  const int rank;
  const int world_size;
  GPTModel model;
  Adam adam;
  TrainCursor cursor;

 private:
  const BucketCorpus corpus_;
  TrainingSentinel sentinel_;
  StepTelemetryCollector telemetry_;
};

/// One elastic attempt: grid.total() active ranks plus config.elastic.spares
/// parked spares over an elastic ThreadWorld, recovering from rank failures
/// in-job (spare swap or shrink, then a restore from the in-memory
/// replicas). Throws only when in-job recovery is impossible (replica lost,
/// shrink refused, unrecoverable error); the supervisor then restarts from
/// disk. `first_attempt` arms config.chaos's node faults in epoch 0.
void run_elastic_attempt(const ResilientTrainConfig& config,
                         bool first_attempt, ResilientTrainResult& result,
                         std::mutex& result_mutex);

}  // namespace axonn::train
