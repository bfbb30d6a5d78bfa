// Training health sentinel: journal/rollback restores bit-exact state,
// NaN/inf and gradient-spike detection reach world consensus, replay heals a
// one-shot memory corruption to a bit-identical final loss, and exhausted
// replay budgets escalate to the checkpoint/restart supervisor.

#include "axonn/train/sentinel.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "axonn/comm/thread_comm.hpp"
#include "axonn/core/grid4d.hpp"
#include "axonn/train/resilient.hpp"
#include "scratch_dir.hpp"

namespace axonn::train {
namespace {

namespace fs = std::filesystem;
using integrity::CountersSnapshot;
using integrity::IntegrityMode;

TinyGPTConfig tiny_model() {
  TinyGPTConfig config;
  config.vocab = 16;
  config.max_seq = 16;
  config.layers = 1;
  config.hidden = 16;
  config.heads = 2;
  config.seed = 7;
  return config;
}

CorpusConfig tiny_corpus() {
  CorpusConfig config;
  config.vocab = 16;
  config.doc_tokens = 16;
  config.docs_per_bucket = 2;
  return config;
}

/// Runs `body(model, adam, sentinel, corpus)` on a single-rank world.
template <typename Body>
void with_training_stack(const SentinelConfig& sentinel_config, Body&& body) {
  comm::run_ranks(1, [&](comm::Communicator& world) {
    core::Grid4D grid(world, sim::GridShape{1, 1, 1, 1});
    GPTModel model(grid, tiny_model());
    Adam adam;
    model.register_params(adam);
    TrainingSentinel sentinel(sentinel_config, world, model, adam);
    const BucketCorpus corpus(tiny_corpus());
    body(model, adam, sentinel, corpus);
  });
}

std::vector<TokenSeq> batch_for(const BucketCorpus& corpus, std::uint64_t doc) {
  return {corpus.background_doc(doc), corpus.background_doc(doc + 1)};
}

std::vector<Matrix> snapshot_weights(GPTModel& model) {
  std::vector<Matrix> weights;
  model.for_each_parameter([&](Matrix& w) { weights.push_back(w); });
  return weights;
}

TEST(SentinelTest, OffModeIsInertAndJournalFree) {
  SentinelConfig config;  // kOff
  with_training_stack(config, [](GPTModel& model, Adam& adam,
                                 TrainingSentinel& sentinel,
                                 const BucketCorpus& corpus) {
    EXPECT_FALSE(sentinel.enabled());
    const CountersSnapshot before = integrity::counters().snapshot();
    TrainCursor cursor;
    sentinel.journal(cursor);
    model.zero_grad();
    const float loss = model.train_step(batch_for(corpus, 0));
    EXPECT_TRUE(sentinel.check_step(loss, cursor));
    adam.step();
    const CountersSnapshot after = integrity::counters().snapshot();
    EXPECT_EQ(after.sentinel_checks, before.sentinel_checks);
  });
}

TEST(SentinelTest, HealthyStepsPassConsensus) {
  SentinelConfig config;
  config.mode = IntegrityMode::kHeal;
  with_training_stack(config, [](GPTModel& model, Adam& adam,
                                 TrainingSentinel& sentinel,
                                 const BucketCorpus& corpus) {
    const CountersSnapshot before = integrity::counters().snapshot();
    TrainCursor cursor;
    for (int step = 0; step < 4; ++step) {
      sentinel.journal(cursor);
      model.zero_grad();
      const float loss = model.train_step(batch_for(corpus, cursor.step * 2));
      ASSERT_TRUE(sentinel.check_step(loss, cursor));
      adam.step();
      cursor.step += 1;
    }
    const CountersSnapshot after = integrity::counters().snapshot();
    EXPECT_EQ(after.sentinel_checks - before.sentinel_checks, 4u);
    EXPECT_EQ(after.sentinel_unhealthy, before.sentinel_unhealthy);
    EXPECT_EQ(sentinel.replays(), 0u);
  });
}

TEST(SentinelTest, NonFiniteGradientRollsBackBitExact) {
  SentinelConfig config;
  config.mode = IntegrityMode::kHeal;
  with_training_stack(config, [](GPTModel& model, Adam& adam,
                                 TrainingSentinel& sentinel,
                                 const BucketCorpus& corpus) {
    TrainCursor cursor;
    cursor.rng = Rng(5);
    const std::vector<Matrix> before_weights = snapshot_weights(model);
    const TrainCursor before_cursor = cursor;

    sentinel.journal(cursor);
    model.zero_grad();
    const float loss = model.train_step(batch_for(corpus, 0));
    // The optimizer applies the (about to be poisoned) gradients — rollback
    // must undo the weight update, the moments, and the step counter.
    adam.step();
    cursor.step = 1;
    bool first = true;
    model.for_each_gradient([&first](Matrix& g) {
      if (first && g.rows() > 0) {
        g(0, 0) = std::numeric_limits<float>::quiet_NaN();
        first = false;
      }
    });

    EXPECT_FALSE(sentinel.check_step(loss, cursor));
    EXPECT_EQ(sentinel.replays(), 1u);
    EXPECT_EQ(cursor.step, before_cursor.step);
    {
      Rng restored = cursor.rng;  // copies: peeking must not advance state
      Rng original = before_cursor.rng;
      EXPECT_EQ(restored(), original());
    }
    EXPECT_EQ(adam.step_count(), 0);
    const std::vector<Matrix> after_weights = snapshot_weights(model);
    ASSERT_EQ(after_weights.size(), before_weights.size());
    for (std::size_t i = 0; i < after_weights.size(); ++i) {
      EXPECT_EQ(after_weights[i].storage(), before_weights[i].storage());
    }
  });
}

TEST(SentinelTest, GradientSpikeTriggersAfterWarmup) {
  SentinelConfig config;
  config.mode = IntegrityMode::kHeal;
  config.warmup_steps = 2;
  with_training_stack(config, [](GPTModel& model, Adam& adam,
                                 TrainingSentinel& sentinel,
                                 const BucketCorpus& corpus) {
    TrainCursor cursor;
    for (int step = 0; step < 3; ++step) {
      sentinel.journal(cursor);
      model.zero_grad();
      const float loss = model.train_step(batch_for(corpus, cursor.step * 2));
      ASSERT_TRUE(sentinel.check_step(loss, cursor));
      adam.step();
      cursor.step += 1;
    }
    // A finite but astronomically scaled gradient — the signature of a
    // high-exponent bit flip — must trip the EMA spike check.
    sentinel.journal(cursor);
    model.zero_grad();
    const float loss = model.train_step(batch_for(corpus, cursor.step * 2));
    model.for_each_gradient([](Matrix& g) {
      for (float& v : g.storage()) v *= 1e8f;
    });
    EXPECT_FALSE(sentinel.check_step(loss, cursor));
    EXPECT_EQ(sentinel.replays(), 1u);
  });
}

TEST(SentinelTest, DetectModeEscalatesImmediately) {
  SentinelConfig config;
  config.mode = IntegrityMode::kDetect;
  with_training_stack(config, [](GPTModel& model, Adam& adam,
                                 TrainingSentinel& sentinel,
                                 const BucketCorpus& corpus) {
    (void)adam;
    TrainCursor cursor;
    sentinel.journal(cursor);
    model.zero_grad();
    const float loss = model.train_step(batch_for(corpus, 0));
    bool first = true;
    model.for_each_gradient([&first](Matrix& g) {
      if (first && g.rows() > 0) {
        g(0, 0) = std::numeric_limits<float>::infinity();
        first = false;
      }
    });
    EXPECT_THROW(sentinel.check_step(loss, cursor), SdcEscalationError);
  });
}

TEST(SentinelTest, ReplayBudgetExhaustionEscalates) {
  SentinelConfig config;
  config.mode = IntegrityMode::kHeal;
  config.max_replays = 1;
  with_training_stack(config, [](GPTModel& model, Adam& adam,
                                 TrainingSentinel& sentinel,
                                 const BucketCorpus& corpus) {
    (void)adam;
    TrainCursor cursor;
    auto poisoned_step = [&] {
      model.zero_grad();
      const float loss = model.train_step(batch_for(corpus, 0));
      bool first = true;
      model.for_each_gradient([&first](Matrix& g) {
        if (first && g.rows() > 0) {
          g(0, 0) = std::numeric_limits<float>::quiet_NaN();
          first = false;
        }
      });
      return loss;
    };
    sentinel.journal(cursor);
    EXPECT_FALSE(sentinel.check_step(poisoned_step(), cursor));  // replay 1
    // A persistently-failing step (same step index) exceeds max_replays=1.
    EXPECT_THROW(sentinel.check_step(poisoned_step(), cursor),
                 SdcEscalationError);
  });
}

// ---------------------------------------------------------------------------
// End-to-end demonstrated heal (the PR's acceptance run, test-sized).
// ---------------------------------------------------------------------------

ResilientTrainConfig sentinel_config(const fs::path& checkpoint_dir,
                                     sim::GridShape grid = {1, 1, 1, 2}) {
  ResilientTrainConfig config;
  config.model = tiny_model();
  config.corpus = tiny_corpus();
  config.grid = grid;
  config.adam.lr = 5e-3f;
  config.total_steps = 6;
  config.batch_per_rank = 2;
  config.checkpoint_every = 3;
  config.checkpoint_dir = checkpoint_dir.string();
  config.collective_timeout = std::chrono::milliseconds(10000);
  config.sentinel.mode = IntegrityMode::kHeal;
  return config;
}

/// Which recovery driver runs the sentinel: the disk-restart driver on a
/// data-parallel grid, or the elastic driver (which re-shards over Z, so it
/// needs gdata == 1).
struct HealCase {
  bool elastic;
  sim::GridShape grid;
};

void PrintTo(const HealCase& c, std::ostream* os) {
  *os << (c.elastic ? "elastic_" : "disk_restart_") << c.grid.gx << "x"
      << c.grid.gy << "x" << c.grid.gz << "x" << c.grid.gdata;
}

class SentinelHealTest : public ::testing::TestWithParam<HealCase> {
 protected:
  ResilientTrainConfig heal_config(const std::string& name) const {
    auto config = sentinel_config(scratch_dir(name), GetParam().grid);
    config.elastic.enabled = GetParam().elastic;
    return config;
  }
};

TEST_P(SentinelHealTest, OneShotMemoryCorruptionHealsBitIdentical) {
  const auto reference = run_resilient_training(heal_config("reference"));
  EXPECT_EQ(reference.restarts, 0);
  EXPECT_EQ(reference.step_replays, 0u);
  EXPECT_EQ(reference.steps_executed, 6u);

  auto config = heal_config("corrupted");
  config.enable_chaos = true;
  config.chaos.seed = 13;
  // One high-exponent bit flip in a mid-training collective result — the
  // post-delivery memory-corruption class no transport CRC can see.
  config.chaos.corrupt_once_rank = 0;
  config.chaos.corrupt_once_collective = 12;

  const CountersSnapshot before = integrity::counters().snapshot();
  const auto healed = run_resilient_training(config);
  const CountersSnapshot after = integrity::counters().snapshot();

  // Healed in-run: no supervisor restart, at least one rollback+replay, and
  // a final loss bit-identical to the fault-free run.
  EXPECT_EQ(healed.restarts, 0);
  EXPECT_GE(healed.step_replays, 1u);
  // Replayed (unhealthy) executions don't count; every step completes once.
  EXPECT_EQ(healed.steps_executed, 6u);
  EXPECT_EQ(healed.final_loss, reference.final_loss);
  EXPECT_GT(after.sdc_detected, before.sdc_detected);
  EXPECT_EQ(after.sdc_detected - before.sdc_detected,
            after.sdc_recovered - before.sdc_recovered);
}

INSTANTIATE_TEST_SUITE_P(
    Drivers, SentinelHealTest,
    ::testing::Values(HealCase{false, sim::GridShape{1, 1, 1, 2}},
                      HealCase{true, sim::GridShape{1, 1, 2, 1}}));

TEST(SentinelTest, EscalationFallsBackToCheckpointRestart) {
  // Detect mode cannot heal in-run: the sentinel escalates, and the PR 1
  // supervisor restarts from the latest checkpoint and still converges to
  // the fault-free loss.
  const auto reference =
      run_resilient_training(sentinel_config(scratch_dir("esc_reference")));

  auto config = sentinel_config(scratch_dir("esc_detect"));
  config.sentinel.mode = IntegrityMode::kDetect;
  config.enable_chaos = true;
  config.chaos.seed = 17;
  config.chaos.corrupt_once_rank = 0;
  config.chaos.corrupt_once_collective = 12;

  const auto recovered = run_resilient_training(config);
  EXPECT_EQ(recovered.restarts, 1);
  EXPECT_EQ(recovered.step_replays, 0u);
  EXPECT_EQ(recovered.final_loss, reference.final_loss);
}

}  // namespace
}  // namespace axonn::train
