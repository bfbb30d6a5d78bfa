// Cross-rank step telemetry (DESIGN.md §10): the fixed-layout fold, the
// StragglerMonitor's self-time streak policy, the AXONN_METRICS session
// (JSONL + Prometheus), the training-loop collector under ChaosComm latency
// injection, and the simulator bridge.

#include "axonn/base/step_telemetry.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "axonn/comm/chaos_comm.hpp"
#include "axonn/comm/thread_comm.hpp"
#include "axonn/sim/iteration.hpp"
#include "axonn/train/resilient.hpp"
#include "axonn/train/telemetry.hpp"
#include "scratch_dir.hpp"

namespace axonn::obs {
namespace {

namespace fs = std::filesystem;

/// Builds a StepTelemetry whose per-rank self times are `self_s` (every other
/// field zeroed) — enough for the monitor, which only reads kSelfS.
StepTelemetry telemetry_with_self(std::uint64_t step,
                                  const std::vector<double>& self_s) {
  const int world = static_cast<int>(self_s.size());
  std::vector<float> fold(fold_size(world), 0.0f);
  for (int r = 0; r < world; ++r) {
    fold[static_cast<std::size_t>(StepField::kSelfS) *
             static_cast<std::size_t>(world) +
         static_cast<std::size_t>(r)] = static_cast<float>(self_s[r]);
  }
  return fold_to_telemetry(step, world, fold);
}

TEST(StepTelemetryTest, FoldToTelemetryComputesExactStats) {
  // world = 3, values chosen exactly representable in float.
  constexpr int kWorld = 3;
  std::vector<float> fold(fold_size(kWorld), 0.0f);
  auto slot = [&](StepField f, int rank) -> float& {
    return fold[static_cast<std::size_t>(f) * kWorld +
                static_cast<std::size_t>(rank)];
  };
  slot(StepField::kWallS, 0) = 1.0f;
  slot(StepField::kWallS, 1) = 2.0f;
  slot(StepField::kWallS, 2) = 3.0f;
  slot(StepField::kSelfS, 0) = 0.5f;
  slot(StepField::kSelfS, 1) = 4.0f;  // rank 1 is the argmax
  slot(StepField::kSelfS, 2) = 1.5f;
  slot(StepField::kLoss, 0) = 2.25f;
  slot(StepField::kLoss, 1) = 2.25f;
  slot(StepField::kLoss, 2) = 2.25f;

  const StepTelemetry t = fold_to_telemetry(17, kWorld, fold);
  EXPECT_EQ(t.step, 17u);
  EXPECT_EQ(t.world, kWorld);

  const StepStat& wall = t.stat(StepField::kWallS);
  EXPECT_DOUBLE_EQ(wall.min, 1.0);
  EXPECT_DOUBLE_EQ(wall.mean, 2.0);
  EXPECT_DOUBLE_EQ(wall.max, 3.0);
  EXPECT_EQ(wall.argmax_rank, 2);

  const StepStat& self = t.stat(StepField::kSelfS);
  EXPECT_DOUBLE_EQ(self.min, 0.5);
  EXPECT_DOUBLE_EQ(self.mean, 2.0);
  EXPECT_DOUBLE_EQ(self.max, 4.0);
  EXPECT_EQ(self.argmax_rank, 1);
  EXPECT_DOUBLE_EQ(t.rank_value(StepField::kSelfS, 2), 1.5);

  // An all-equal field keeps argmax at the first rank.
  EXPECT_EQ(t.stat(StepField::kLoss).argmax_rank, 0);
  EXPECT_DOUBLE_EQ(t.stat(StepField::kLoss).mean, 2.25);
}

TEST(StepTelemetryTest, JsonlLineCarriesStatsAndPerRankVectors) {
  const StepTelemetry t = telemetry_with_self(5, {0.1, 0.4});
  std::ostringstream out;
  write_step_jsonl(out, t);
  const std::string line = out.str();

  EXPECT_EQ(std::count(line.begin(), line.end(), '\n'), 1)
      << "JSONL is one object per line";
  EXPECT_NE(line.find("\"step\":5"), std::string::npos) << line;
  EXPECT_NE(line.find("\"world\":2"), std::string::npos);
  EXPECT_NE(line.find("\"self_s\":{"), std::string::npos);
  EXPECT_NE(line.find("\"argmax_rank\":1"), std::string::npos);
  EXPECT_NE(line.find("\"per_rank_wall_s\":[0,0]"), std::string::npos);
  EXPECT_NE(line.find("\"per_rank_self_s\":[0.1,0.4]"), std::string::npos);

  // The console rendering names every field.
  const std::string table = step_table(t);
  for (int f = 0; f < kNumStepFields; ++f) {
    EXPECT_NE(table.find(to_string(static_cast<StepField>(f))),
              std::string::npos)
        << table;
  }
}

TEST(StragglerMonitorTest, FlagsAfterConsecutiveSlowSteps) {
  StragglerMonitor::Config config;
  config.factor = 1.5;
  config.consecutive_steps = 3;
  StragglerMonitor monitor(config);

  // Rank 3's self time is 3x everyone else's: mean = 1.5, 3.0 > 1.5 * 1.5.
  const std::vector<double> skewed{1.0, 1.0, 1.0, 3.0};
  EXPECT_TRUE(monitor.observe(telemetry_with_self(1, skewed)).empty());
  EXPECT_TRUE(monitor.observe(telemetry_with_self(2, skewed)).empty());
  const std::vector<int> newly = monitor.observe(telemetry_with_self(3, skewed));
  ASSERT_EQ(newly.size(), 1u);
  EXPECT_EQ(newly[0], 3);
  EXPECT_EQ(monitor.streak(3), 3);
  EXPECT_EQ(monitor.streak(0), 0);

  // Already flagged: staying slow does not re-flag.
  EXPECT_TRUE(monitor.observe(telemetry_with_self(4, skewed)).empty());
  ASSERT_EQ(monitor.flagged().size(), 1u);
  EXPECT_EQ(monitor.flagged()[0], 3);
}

TEST(StragglerMonitorTest, AHealthyStepResetsTheStreak) {
  StragglerMonitor::Config config;
  config.factor = 1.5;
  config.consecutive_steps = 3;
  StragglerMonitor monitor(config);

  const std::vector<double> skewed{1.0, 1.0, 1.0, 3.0};
  const std::vector<double> even{1.0, 1.0, 1.0, 1.0};
  monitor.observe(telemetry_with_self(1, skewed));
  monitor.observe(telemetry_with_self(2, skewed));
  monitor.observe(telemetry_with_self(3, even));  // streak broken
  EXPECT_EQ(monitor.streak(3), 0);
  EXPECT_TRUE(monitor.observe(telemetry_with_self(4, skewed)).empty());
  EXPECT_TRUE(monitor.observe(telemetry_with_self(5, skewed)).empty());
  EXPECT_TRUE(monitor.flagged().empty());
}

TEST(StragglerMonitorTest, MinExcessFloorSuppressesTinySkews) {
  StragglerMonitor::Config config;
  config.factor = 1.5;
  config.consecutive_steps = 1;
  config.min_excess_s = 0.5;
  StragglerMonitor monitor(config);

  // 2x the mean but only 0.15s over it: below the absolute floor.
  EXPECT_TRUE(
      monitor.observe(telemetry_with_self(1, {0.1, 0.1, 0.1, 0.3})).empty());
  // Same shape scaled up clears the floor.
  EXPECT_FALSE(
      monitor.observe(telemetry_with_self(2, {1.0, 1.0, 1.0, 3.0})).empty());
}

TEST(StepTelemetryTest, MetricsSessionStreamsJsonlAndWritesPrometheus) {
  const fs::path dir = scratch_dir("session");
  const std::string path = (dir / "steps.jsonl").string();
  {
    MetricsSession session(path);
    ASSERT_TRUE(session.active());
    EXPECT_TRUE(metrics::enabled()) << "a session enables the registry";
    EXPECT_TRUE(step_sink_active());
    metrics::Counter("test.telemetry.session").add(2.0);
    emit_step(telemetry_with_self(1, {0.1, 0.2}));
    emit_step(telemetry_with_self(2, {0.1, 0.2}));
  }
  EXPECT_FALSE(step_sink_active());
  EXPECT_FALSE(metrics::enabled());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  int lines = 0;
  std::string line;
  while (std::getline(in, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    ++lines;
  }
  EXPECT_EQ(lines, 2);

  std::ifstream prom(path + ".prom");
  ASSERT_TRUE(prom.good()) << "destructor writes <path>.prom";
  std::stringstream text;
  text << prom.rdbuf();
  EXPECT_NE(text.str().find("axonn_test_telemetry_session 2"),
            std::string::npos)
      << text.str();
  metrics::reset();
}

TEST(StepTelemetryTest, EmitStepWithoutASessionIsANoOp) {
  ASSERT_FALSE(step_sink_active());
  emit_step(telemetry_with_self(1, {0.1, 0.2}));  // must not crash
}

// ---------------------------------------------------------------------------
// The collector on a live 2-rank world
// ---------------------------------------------------------------------------

TEST(StepTelemetryTest, CollectorAttributesChaosLatencyToTheSlowRanksSelfTime) {
  metrics::set_enabled(true);
  metrics::reset();

  comm::ChaosConfig chaos;
  chaos.slow_rank = 1;
  chaos.slow_delay = std::chrono::microseconds(20000);

  std::vector<StepTelemetry> per_rank(2);
  comm::run_ranks(2, [&](comm::Communicator& world) {
    comm::ChaosComm slowed(world, chaos);
    train::StepTelemetryCollector collector(world);
    ASSERT_TRUE(collector.active());

    collector.begin_step();
    // The "step": two blocking collectives through the chaos wrapper. Rank 1
    // sleeps 20ms before each; rank 0 spends that time stalled inside the
    // collective, where the stall clock charges it to exposed comm.
    std::vector<float> buf(64, 1.0f);
    slowed.all_reduce(std::span<float>(buf), comm::ReduceOp::kSum);
    slowed.barrier();
    per_rank[static_cast<std::size_t>(world.rank())] =
        collector.end_step(/*step=*/1, /*loss=*/0.5f);
  });

  // The fold makes every rank hold identical telemetry.
  const StepTelemetry& t = per_rank[0];
  ASSERT_EQ(t.world, 2);
  EXPECT_EQ(t.step, 1u);
  for (int f = 0; f < kNumStepFields; ++f) {
    for (int r = 0; r < 2; ++r) {
      EXPECT_DOUBLE_EQ(per_rank[1].rank_value(static_cast<StepField>(f), r),
                       t.rank_value(static_cast<StepField>(f), r));
    }
  }

  // The injected 2x20ms lands in rank 1's SELF time — wall times are nearly
  // equal (the collectives synchronize), so argmax over self, not wall, is
  // what localizes the straggler.
  EXPECT_EQ(t.stat(StepField::kSelfS).argmax_rank, 1);
  EXPECT_GE(t.rank_value(StepField::kSelfS, 1), 0.030);
  // Rank 0 spent the injected delay stalled inside the collectives.
  EXPECT_GE(t.rank_value(StepField::kExposedCommS, 0), 0.030);
  EXPECT_LT(t.rank_value(StepField::kSelfS, 0),
            0.5 * t.rank_value(StepField::kSelfS, 1));
  // Both ranks moved bytes and report the loss they fed in.
  EXPECT_GT(t.stat(StepField::kWireMB).min, 0.0);
  EXPECT_DOUBLE_EQ(t.stat(StepField::kLoss).mean, 0.5);

  metrics::set_enabled(false);
  metrics::reset();
}

TEST(StepTelemetryTest, CollectorIsInertWhenMetricsAreDisabled) {
  ASSERT_FALSE(metrics::enabled());
  comm::run_ranks(2, [&](comm::Communicator& world) {
    train::StepTelemetryCollector collector(world);
    EXPECT_FALSE(collector.active());
    collector.begin_step();
    const StepTelemetry t = collector.end_step(1, 0.0f);
    EXPECT_EQ(t.world, 0) << "inactive collector returns an empty telemetry";
  });
}

// ---------------------------------------------------------------------------
// End-to-end: resilient training under injected latency (the ISSUE's
// acceptance scenario)
// ---------------------------------------------------------------------------

TEST(StepTelemetryTest, ResilientTrainingFlagsTheInjectedStraggler) {
  const fs::path dir = scratch_dir("straggler");
  const std::string jsonl = (dir / "steps.jsonl").string();

  train::ResilientTrainConfig config;
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
  config.total_steps = 5;
  config.batch_per_rank = 1;
  config.checkpoint_every = 0;
  config.checkpoint_dir = (dir / "ckpt").string();
  config.enable_chaos = true;
  config.chaos.slow_rank = 1;
  config.chaos.slow_delay = std::chrono::microseconds(3000);
  config.straggler.factor = 1.5;
  config.straggler.consecutive_steps = 3;
  config.straggler.min_excess_s = 0.001;

  train::ResilientTrainResult result;
  {
    MetricsSession session(jsonl);
    ASSERT_TRUE(session.active());
    result = train::run_resilient_training(config);
  }

  EXPECT_EQ(result.steps_executed, 5u);
  EXPECT_EQ(result.telemetry_steps, 5u);
  // Within K = 3 steps the monitor flags the rank ChaosComm slows down.
  ASSERT_EQ(result.straggler_ranks.size(), 1u);
  EXPECT_EQ(result.straggler_ranks[0], 1);

  // The JSONL stream has one line per healthy step, each blaming rank 1's
  // self time (many collectives per step, 3ms injected before each).
  std::ifstream in(jsonl);
  ASSERT_TRUE(in.good());
  int lines = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++lines;
    const std::size_t self = line.find("\"self_s\":{");
    ASSERT_NE(self, std::string::npos) << line;
    EXPECT_NE(line.find("\"argmax_rank\":1", self), std::string::npos) << line;
  }
  EXPECT_EQ(lines, 5);
  ASSERT_TRUE(fs::exists(jsonl + ".prom"));
  metrics::reset();
}

// ---------------------------------------------------------------------------
// Simulator bridge
// ---------------------------------------------------------------------------

TEST(StepTelemetryTest, SimulatorBreakdownBridgesToStepTelemetry) {
  sim::IterationBreakdown breakdown;
  breakdown.total_s = 2.0;
  breakdown.compute_s = 1.5;
  breakdown.exposed_comm_s = 0.5;

  const StepTelemetry t = sim::to_step_telemetry(breakdown, 9, 4);
  EXPECT_EQ(t.step, 9u);
  EXPECT_EQ(t.world, 4);
  // The simulated machine is straggler-free: all ranks identical.
  EXPECT_DOUBLE_EQ(t.stat(StepField::kWallS).min, 2.0);
  EXPECT_DOUBLE_EQ(t.stat(StepField::kWallS).max, 2.0);
  EXPECT_DOUBLE_EQ(t.stat(StepField::kExposedCommS).mean, 0.5);
  EXPECT_DOUBLE_EQ(t.stat(StepField::kSelfS).mean, 1.5);
  for (int r = 0; r < 4; ++r) {
    EXPECT_DOUBLE_EQ(t.rank_value(StepField::kWallS, r), 2.0);
  }
}

}  // namespace
}  // namespace axonn::obs
