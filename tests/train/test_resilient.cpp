// End-to-end fault tolerance: training under ChaosComm with an injected rank
// crash restarts, restores the latest fully-valid checkpoint (skipping
// corrupted ones), replays, and finishes with a final loss bit-identical to
// the uninterrupted run.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "axonn/comm/fault.hpp"
#include "axonn/train/checkpoint.hpp"
#include "axonn/train/resilient.hpp"
#include "scratch_dir.hpp"

namespace axonn::train {
namespace {

namespace fs = std::filesystem;

ResilientTrainConfig base_config(const fs::path& checkpoint_dir) {
  ResilientTrainConfig config;
  config.model.vocab = 16;
  config.model.max_seq = 16;
  config.model.layers = 1;
  config.model.hidden = 16;
  config.model.heads = 2;
  config.model.seed = 7;
  config.corpus.vocab = 16;
  config.corpus.doc_tokens = 16;
  config.corpus.docs_per_bucket = 2;
  config.grid = sim::GridShape{1, 1, 1, 2};
  config.adam.lr = 5e-3f;
  config.total_steps = 6;
  config.batch_per_rank = 2;
  config.checkpoint_every = 1;
  config.checkpoint_dir = checkpoint_dir.string();
  config.collective_timeout = std::chrono::milliseconds(10000);
  return config;
}

TEST(ResilientTrainingTest, CrashRecoveryIsBitIdentical) {
  // Reference: the same run with no faults injected.
  const auto reference =
      run_resilient_training(base_config(scratch_dir("reference")));
  EXPECT_EQ(reference.restarts, 0);
  EXPECT_EQ(reference.steps_executed, 6u);

  auto config = base_config(scratch_dir("chaos"));
  config.chaos.seed = 11;
  config.chaos.crash_rank = 1;
  // Deep enough to land mid-training (each step issues one all-reduce per
  // parameter tensor), well before the run's final collective.
  config.chaos.crash_at_collective = 25;

  const auto recovered = run_resilient_training(config);
  EXPECT_EQ(recovered.restarts, 1);
  // checkpoint_every=1, so the restarted attempt resumes from the last
  // completed step: across both attempts rank 0 executes each of the 6
  // steps exactly once — the crashed partial step is not counted.
  EXPECT_EQ(recovered.steps_executed, 6u);
  // Every step checkpoints on both ranks, split across the two attempts.
  EXPECT_EQ(recovered.checkpoints_written, 12u);

  // The recovered run must be indistinguishable from the fault-free one —
  // bit-identical, not just close.
  EXPECT_EQ(recovered.final_loss, reference.final_loss);
}

TEST(ResilientTrainingTest, RestoreSkipsCorruptedNewestCheckpoint) {
  const fs::path dir = scratch_dir("skip_corrupt");
  auto config = base_config(dir);
  config.checkpoint_every = 2;  // checkpoints at steps 2, 4, 6

  const auto first = run_resilient_training(config);

  // Tear the newest checkpoint (step 6) on both ranks and plant a garbage
  // file pair under an even newer step name.
  for (int rank = 0; rank < 2; ++rank) {
    fs::resize_file(dir / checkpoint_filename(6, rank), 10);
    std::ofstream(dir / checkpoint_filename(999, rank), std::ios::binary)
        << "not a checkpoint";
  }

  // The rerun must fall back to step 4 and replay steps 5 and 6, landing on
  // the same final loss.
  const auto second = run_resilient_training(config);
  EXPECT_EQ(second.restarts, 0);
  EXPECT_EQ(second.steps_executed, 2u);
  EXPECT_EQ(second.final_loss, first.final_loss);
}

TEST(ResilientTrainingTest, FreshDirectoryTrainsFromScratch) {
  auto config = base_config(scratch_dir("fresh"));
  config.total_steps = 2;
  const auto result = run_resilient_training(config);
  EXPECT_EQ(result.restarts, 0);
  EXPECT_EQ(result.steps_executed, 2u);
  EXPECT_EQ(result.checkpoints_written, 4u);  // 2 steps x 2 ranks
  EXPECT_GT(result.final_loss, 0.0f);
}

TEST(ResilientTrainingTest, RestartBudgetExhaustionRethrows) {
  auto config = base_config(scratch_dir("budget"));
  config.total_steps = 2;
  config.chaos.seed = 3;
  // Unrecoverable fault: every collective is corrupted and verification is
  // on, so every attempt (restarts keep corruption armed) dies the same way.
  config.chaos.corrupt_probability = 1.0;
  config.chaos.verify_replicated_results = true;
  config.max_restarts = 1;
  EXPECT_THROW(run_resilient_training(config), comm::DataCorruptionError);
}

}  // namespace
}  // namespace axonn::train
