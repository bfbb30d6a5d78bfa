// Elastic fault tolerance end-to-end (DESIGN.md §11): an injected mid-step
// crash is absorbed in-job — a spare hot-swaps into the dead slot and the run
// finishes bit-identical to an uninterrupted one; without a spare the world
// shrinks to the survivors deterministically; a hang is detected via
// heartbeats and handled exactly like a crash. Plus unit coverage for the
// peer-replica store and the shrink reshard.

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#include "axonn/comm/thread_comm.hpp"
#include "axonn/core/grid4d.hpp"
#include "axonn/train/checkpoint.hpp"
#include "axonn/train/replica.hpp"
#include "axonn/train/resilient.hpp"

namespace axonn::train {
namespace {

namespace fs = std::filesystem;

fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / ("axonn_elastic_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

ResilientTrainConfig elastic_config(const fs::path& checkpoint_dir, int gz,
                                    int spares) {
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
  config.grid = sim::GridShape{1, 1, gz, 1};
  config.adam.lr = 5e-3f;
  config.total_steps = 6;
  config.batch_per_rank = 2;
  config.checkpoint_every = 1;
  config.checkpoint_dir = checkpoint_dir.string();
  // Generous under TSan; failures here should be decided by the membership
  // layer (declare_dead / heartbeats), not the watchdog.
  config.collective_timeout = std::chrono::milliseconds(30000);
  config.elastic.enabled = true;
  config.elastic.spares = spares;
  return config;
}

TEST(ElasticTrainingTest, SpareSwapResumesBitIdentical) {
  // Reference: the same elastic run with no faults (the spare parks until
  // finish() releases it).
  const auto reference = run_resilient_training(
      elastic_config(scratch_dir("swap_ref"), /*gz=*/3, /*spares=*/1));
  EXPECT_EQ(reference.restarts, 0);
  EXPECT_EQ(reference.epoch_bumps, 0u);
  EXPECT_EQ(reference.final_world_size, 3);
  EXPECT_EQ(reference.steps_executed, 6u);
  EXPECT_GE(reference.replica_pushes, 3u * 7u);  // baseline + 6 steps x 3 slots

  auto config = elastic_config(scratch_dir("swap_chaos"), /*gz=*/3,
                               /*spares=*/1);
  config.enable_chaos = true;
  config.chaos.seed = 11;
  config.chaos.crash_rank = 1;  // a grid slot: stable across the swap
  config.chaos.crash_at_collective = 25;

  const auto recovered = run_resilient_training(config);
  // The whole point: recovery happened in-job, not via the supervisor.
  EXPECT_EQ(recovered.restarts, 0);
  EXPECT_EQ(recovered.epoch_bumps, 1u);
  EXPECT_EQ(recovered.spare_swaps, 1u);
  EXPECT_EQ(recovered.shrinks, 0u);
  EXPECT_EQ(recovered.replica_restores, 3u);  // 2 survivors + the spare
  EXPECT_EQ(recovered.final_world_size, 3);
  EXPECT_GE(recovered.recovery_ms, 0.0);
  // Rolled back to the replicas' common step, then replayed: at least the
  // uninterrupted step count in total.
  EXPECT_GE(recovered.steps_executed, 6u);

  // Resumed from the buddy replica and replayed deterministically: the loss
  // is bit-identical to the uninterrupted elastic run, not just close.
  EXPECT_EQ(recovered.final_loss, reference.final_loss);
}

TEST(ElasticTrainingTest, ShrinkToSurvivorsIsDeterministic) {
  auto make = [](const fs::path& dir) {
    auto config = elastic_config(dir, /*gz=*/3, /*spares=*/0);
    config.enable_chaos = true;
    config.chaos.seed = 11;
    config.chaos.crash_rank = 2;
    config.chaos.crash_at_collective = 25;
    return config;
  };

  const auto first = run_resilient_training(make(scratch_dir("shrink_a")));
  EXPECT_EQ(first.restarts, 0);
  EXPECT_EQ(first.epoch_bumps, 1u);
  EXPECT_EQ(first.shrinks, 1u);
  EXPECT_EQ(first.spare_swaps, 0u);
  EXPECT_EQ(first.replica_restores, 2u);  // both survivors reshard
  EXPECT_EQ(first.final_world_size, 2);
  EXPECT_GE(first.recovery_ms, 0.0);

  // The crash slot, the replicas' common step and the post-shrink replay are
  // all deterministic, so a second run lands on the identical loss.
  const auto second = run_resilient_training(make(scratch_dir("shrink_b")));
  EXPECT_EQ(second.final_world_size, 2);
  EXPECT_EQ(second.shrinks, 1u);
  EXPECT_EQ(second.final_loss, first.final_loss);
}

TEST(ElasticTrainingTest, ShrinkRefusedBelowMinRanksFallsBackToRestart) {
  // No spare, shrink capped at the full world: the elastic layer cannot
  // absorb the failure, so the supervisor's disk-checkpoint restart takes
  // over — and must still finish with the reference loss.
  const auto reference = run_resilient_training(
      elastic_config(scratch_dir("floor_ref"), /*gz=*/2, /*spares=*/0));

  auto config = elastic_config(scratch_dir("floor"), /*gz=*/2, /*spares=*/0);
  config.elastic.min_ranks = 2;  // a 2-rank world may not shrink to 1
  config.enable_chaos = true;
  config.chaos.seed = 11;
  config.chaos.crash_rank = 1;
  config.chaos.crash_at_collective = 25;

  const auto recovered = run_resilient_training(config);
  EXPECT_EQ(recovered.restarts, 1);  // full restart, not in-job recovery
  EXPECT_EQ(recovered.epoch_bumps, 0u);
  EXPECT_EQ(recovered.final_world_size, 2);
  EXPECT_EQ(recovered.final_loss, reference.final_loss);
}

TEST(ElasticTrainingTest, HangIsDetectedByHeartbeatsAndRecovered) {
  auto clean = elastic_config(scratch_dir("hang_ref"), /*gz=*/3, /*spares=*/1);
  clean.elastic.heartbeat_timeout = std::chrono::milliseconds(2000);
  const auto reference = run_resilient_training(clean);
  EXPECT_EQ(reference.restarts, 0);

  auto config = elastic_config(scratch_dir("hang"), /*gz=*/3, /*spares=*/1);
  // Generous staleness budget: TSan slows healthy ranks too, and a false
  // positive here would fence off a live rank.
  config.elastic.heartbeat_timeout = std::chrono::milliseconds(2000);
  config.enable_chaos = true;
  config.chaos.seed = 11;
  config.chaos.hang_rank = 1;
  config.chaos.hang_at_collective = 25;

  const auto recovered = run_resilient_training(config);
  // A hang has no crash announcement: only the peers' heartbeat checks can
  // have detected it. Handled identically to a crash from there on.
  EXPECT_EQ(recovered.restarts, 0);
  EXPECT_EQ(recovered.epoch_bumps, 1u);
  EXPECT_EQ(recovered.spare_swaps, 1u);
  EXPECT_EQ(recovered.final_world_size, 3);
  EXPECT_GE(recovered.recovery_ms, 0.0);
  EXPECT_EQ(recovered.final_loss, reference.final_loss);
}

TEST(ElasticTrainingTest, OagPrefetchCrossesEpochFenceBitIdentical) {
  // The overlap engine keeps weight-gather prefetches in flight across FC
  // layers; a crash can therefore land while prefetched collectives are
  // pending on the z communicator. The epoch
  // fence must drop the stale-epoch messages and the survivors' replay must
  // still be bit-identical — for several crash points, so the fence is hit
  // in different phases of the step (forward OAG window, backward OAR/ORS).
  const auto reference = run_resilient_training(
      elastic_config(scratch_dir("fence_ref"), /*gz=*/3, /*spares=*/1));
  EXPECT_EQ(reference.restarts, 0);

  for (const std::uint64_t crash_at : {18u, 25u, 31u}) {
    auto config = elastic_config(
        scratch_dir("fence_" + std::to_string(crash_at)), /*gz=*/3,
        /*spares=*/1);
    config.enable_chaos = true;
    config.chaos.seed = 11;
    config.chaos.crash_rank = 1;
    config.chaos.crash_at_collective = crash_at;

    const auto recovered = run_resilient_training(config);
    EXPECT_EQ(recovered.restarts, 0) << "crash_at=" << crash_at;
    EXPECT_EQ(recovered.epoch_bumps, 1u) << "crash_at=" << crash_at;
    EXPECT_EQ(recovered.spare_swaps, 1u) << "crash_at=" << crash_at;
    EXPECT_EQ(recovered.final_loss, reference.final_loss)
        << "crash_at=" << crash_at;
  }
}

TEST(ReplicaStoreTest, BuddyMappingAndCommonStep) {
  EXPECT_EQ(ReplicaStore::buddy_slot(0, 3), 1);
  EXPECT_EQ(ReplicaStore::buddy_slot(1, 3), 2);
  EXPECT_EQ(ReplicaStore::buddy_slot(2, 3), 0);

  ReplicaStore store(3);
  EXPECT_EQ(store.slots(), 3);
  EXPECT_FALSE(store.common_step().has_value());

  const std::vector<std::byte> blob{std::byte{0xAB}};
  for (int s = 0; s < 3; ++s) store.push(s, 1, blob);
  ASSERT_TRUE(store.common_step().has_value());
  EXPECT_EQ(*store.common_step(), 1u);

  // A torn push wave (slot 2 never reached step 2) recovers at step 1, which
  // the two-deep history still holds for the slots that moved on.
  store.push(0, 2, blob);
  store.push(1, 2, blob);
  EXPECT_EQ(*store.common_step(), 1u);
  store.push(2, 2, blob);
  EXPECT_EQ(*store.common_step(), 2u);

  // Two waves torn in a row exceeds the history depth: no common step.
  store.push(0, 3, blob);
  store.push(0, 4, blob);
  EXPECT_FALSE(store.common_step().has_value());

  EXPECT_TRUE(store.has(0, 4));
  EXPECT_FALSE(store.has(0, 2));  // evicted by the two-deep history
  EXPECT_THROW(store.blob(0, 2), CheckpointError);
  EXPECT_EQ(store.blob(2, 2), blob);

  store.reset(2);
  EXPECT_EQ(store.slots(), 2);
  EXPECT_FALSE(store.common_step().has_value());
  EXPECT_FALSE(store.has(0, 4));
}

TEST(ReplicaStoreTest, SameStepRepushReplacesInsteadOfEvicting) {
  ReplicaStore store(1);
  store.push(0, 5, {std::byte{1}});
  store.push(0, 6, {std::byte{2}});
  store.push(0, 6, {std::byte{3}});  // replay of step 6 after a rollback
  EXPECT_EQ(store.blob(0, 6), (std::vector<std::byte>{std::byte{3}}));
  EXPECT_TRUE(store.has(0, 5));  // the replace did not evict the history
  EXPECT_EQ(store.pushes(), 3u);
}

TEST(ReshardRestoreTest, ShrunkWorldMatchesSavedModelBitExactly) {
  // Train two Z-shard ranks for a couple of steps, snapshot both, then
  // restore the blobs into (a) a fresh 2-rank world (identity reshard) and
  // (b) a single-rank world (the shrink path). Both must reproduce the saved
  // model: same fixed-batch eval loss, same cursor and optimizer step.
  const TinyGPTConfig model_config = [] {
    TinyGPTConfig c;
    c.vocab = 16;
    c.max_seq = 16;
    c.layers = 1;
    c.hidden = 16;
    c.heads = 2;
    c.seed = 7;
    return c;
  }();
  const CorpusConfig corpus_config = [] {
    CorpusConfig c;
    c.vocab = 16;
    c.doc_tokens = 16;
    c.docs_per_bucket = 2;
    return c;
  }();
  const BucketCorpus corpus(corpus_config);
  const std::vector<TokenSeq> eval_batch{corpus.background_doc(999),
                                         corpus.background_doc(998)};

  std::mutex shared_mutex;
  std::vector<std::vector<std::byte>> blobs(2);
  float saved_loss = 0.0f;

  comm::run_ranks(2, [&](comm::Communicator& world) {
    core::Grid4D grid(world, sim::GridShape{1, 1, 2, 1});
    GPTModel model(grid, model_config);
    Adam adam;
    model.register_params(adam);
    TrainCursor cursor;
    cursor.rng = Rng(0xDA7A0DD5ULL);

    const int rank = world.rank();
    for (int step = 0; step < 2; ++step) {
      const std::uint64_t jitter = cursor.rng.uniform_int(1u << 16);
      std::vector<TokenSeq> batch;
      for (std::uint64_t b = 0; b < 2; ++b) {
        batch.push_back(corpus.background_doc(
            cursor.next_doc + jitter + static_cast<std::uint64_t>(rank) * 2 +
            b));
      }
      model.zero_grad();
      model.train_step(batch);
      adam.step();
      cursor.step += 1;
      cursor.next_doc += 4;
    }

    const float loss = model.evaluate_loss(eval_batch);
    std::lock_guard<std::mutex> lock(shared_mutex);
    blobs[static_cast<std::size_t>(rank)] =
        encode_train_snapshot(model, adam, cursor, rank, 2);
    if (rank == 0) saved_loss = loss;
  });

  // Identity reshard (old_world == new_world): every byte must land back
  // where it came from.
  comm::run_ranks(2, [&](comm::Communicator& world) {
    core::Grid4D grid(world, sim::GridShape{1, 1, 2, 1});
    GPTModel model(grid, model_config);
    Adam adam;
    model.register_params(adam);
    TrainCursor cursor;
    reshard_restore(blobs, model, adam, cursor, world.rank(), 2);
    EXPECT_EQ(cursor.step, 2u);
    EXPECT_EQ(cursor.next_doc, 8u);
    EXPECT_EQ(adam.step_count(), 2);
    if (world.rank() == 0) {
      EXPECT_EQ(model.evaluate_loss(eval_batch), saved_loss);
    } else {
      model.evaluate_loss(eval_batch);  // collective: both ranks participate
    }
  });

  // Shrink reshard: the 2-way Z-shards reassemble into one full-width rank.
  comm::run_ranks(1, [&](comm::Communicator& world) {
    core::Grid4D grid(world, sim::GridShape{1, 1, 1, 1});
    GPTModel model(grid, model_config);
    Adam adam;
    model.register_params(adam);
    TrainCursor cursor;
    reshard_restore(blobs, model, adam, cursor, /*new_rank=*/0,
                    /*new_world=*/1);
    EXPECT_EQ(cursor.step, 2u);
    EXPECT_EQ(adam.step_count(), 2);
    // The assembled model is the same mathematical function: its forward
    // pass on the fixed batch reproduces the sharded world's loss.
    EXPECT_FLOAT_EQ(model.evaluate_loss(eval_batch), saved_loss);
  });
}

TEST(ReshardRestoreTest, WorldShapeMismatchRejected) {
  comm::run_ranks(1, [&](comm::Communicator& world) {
    core::Grid4D grid(world, sim::GridShape{1, 1, 1, 1});
    TinyGPTConfig model_config;
    model_config.vocab = 16;
    model_config.max_seq = 16;
    model_config.layers = 1;
    model_config.hidden = 16;
    model_config.heads = 2;
    GPTModel model(grid, model_config);
    Adam adam;
    model.register_params(adam);
    TrainCursor cursor;
    // A 1-rank snapshot claiming to be one shard of a 2-way world: the
    // per-blob metadata check must reject it.
    std::vector<std::vector<std::byte>> blobs;
    blobs.push_back(encode_train_snapshot(model, adam, cursor, 0, 1));
    blobs.push_back(encode_train_snapshot(model, adam, cursor, 0, 1));
    EXPECT_THROW(reshard_restore(blobs, model, adam, cursor, 0, 1),
                 CheckpointError);
  });
}

}  // namespace
}  // namespace axonn::train
