#include "axonn/perf/memory_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "axonn/base/arena.hpp"
#include "axonn/base/rng.hpp"
#include "axonn/base/metrics.hpp"
#include "axonn/comm/thread_comm.hpp"
#include "axonn/core/grid4d.hpp"
#include "axonn/perf/comm_model.hpp"
#include "axonn/sim/iteration.hpp"
#include "axonn/tensor/gemm_dispatch.hpp"
#include "axonn/train/adam.hpp"
#include "axonn/train/checkpoint.hpp"
#include "axonn/train/gpt_model.hpp"
#include "axonn/train/sentinel.hpp"
#include "scratch_dir.hpp"

namespace axonn::perf {
namespace {

/// Restores the arena mode on scope exit so tests compose in one binary.
class ModeGuard {
 public:
  explicit ModeGuard(mem::Mode m) : prev_(mem::mode()) { mem::set_mode(m); }
  ~ModeGuard() { mem::set_mode(prev_); }

 private:
  mem::Mode prev_;
};

// ---------------------------------------------------------------------------
// predict_memory unit behavior
// ---------------------------------------------------------------------------

TEST(PredictMemoryTest, ParameterTagsScaleTogether) {
  MemoryModelConfig config;  // defaults mirror TinyGPTConfig defaults
  const MemoryPrediction p = predict_memory(config);
  EXPECT_GT(p.of(mem::Tag::kWeights), 0.0);
  EXPECT_GT(p.of(mem::Tag::kActivations), 0.0);
  EXPECT_GT(p.of(mem::Tag::kCommBuffers), 0.0);
  // Adam holds two moments per gradient element.
  EXPECT_DOUBLE_EQ(p.of(mem::Tag::kAdam), 2.0 * p.of(mem::Tag::kGrads));
  // Weights >= grads: same parameter inventory plus the gathered blocks.
  EXPECT_GT(p.of(mem::Tag::kWeights), p.of(mem::Tag::kGrads));
  EXPECT_GT(p.of(mem::Tag::kPackedPanels), 0.0);
  EXPECT_DOUBLE_EQ(p.total(), p.of(mem::Tag::kWeights) +
                                  p.of(mem::Tag::kGrads) +
                                  p.of(mem::Tag::kAdam) +
                                  p.of(mem::Tag::kActivations) +
                                  p.of(mem::Tag::kPackedPanels) +
                                  p.of(mem::Tag::kCommBuffers));
}

TEST(PredictMemoryTest, KnobsToggleTheirTags) {
  MemoryModelConfig config;
  const MemoryPrediction base = predict_memory(config);
  EXPECT_DOUBLE_EQ(base.of(mem::Tag::kJournal), 0.0);

  // Every lane that gets a task holds its own A-pack beside the shared op(B)
  // pack; 8 sequences give the FC products two row blocks, hence two tasks.
  config.batch = 8;
  const double one_lane = predict_memory(config).of(mem::Tag::kPackedPanels);
  config.gemm_lanes = 2;
  EXPECT_GT(predict_memory(config).of(mem::Tag::kPackedPanels), one_lane);
  config.gemm_lanes = 1;

  config.overlap_collectives = true;
  EXPECT_GT(predict_memory(config).of(mem::Tag::kWeights),
            base.of(mem::Tag::kWeights));

  // The journal deque peaks at depth + 1 snapshots mid-push, so depth 2 vs
  // depth 1 differ by exactly one snapshot = one (depth 1 vs depth 0) gap.
  config.journal_depth = 1;
  const double j1 = predict_memory(config).of(mem::Tag::kJournal);
  config.journal_depth = 2;
  const double j2 = predict_memory(config).of(mem::Tag::kJournal);
  EXPECT_GT(j1, 0.0);
  EXPECT_DOUBLE_EQ(j2 - j1, j1 / 2.0);

  config.journal_depth = 0;
  config.replica_slots = 2;
  EXPECT_GT(predict_memory(config).of(mem::Tag::kJournal), 0.0);
}

// ---------------------------------------------------------------------------
// Checker window semantics (no model required)
// ---------------------------------------------------------------------------

TEST(MemoryModelCheckerTest, WindowMeasuresPeakAndFloorsSmallTags) {
  ModeGuard guard(mem::Mode::kTrack);
  MemoryModelChecker checker(/*tolerance=*/0.10, /*floor_bytes=*/64.0 * 1024);
  checker.begin();
  EXPECT_TRUE(checker.active());
  void* p = nullptr;
  {
    mem::ArenaScope scope(mem::Tag::kCommBuffers);
    p = mem::allocate(1 << 20);
  }
  mem::deallocate(p);  // freed before finish: the HWM still saw it

  MemoryPrediction expected;
  expected.tag_bytes[static_cast<std::size_t>(mem::Tag::kCommBuffers)] =
      static_cast<double>(1 << 20);
  const auto result = checker.finish(expected);
  EXPECT_FALSE(checker.active());

  const auto& comm = result.of(mem::Tag::kCommBuffers);
  EXPECT_TRUE(comm.checked);
  EXPECT_TRUE(comm.ok);
  EXPECT_GE(comm.measured_bytes, static_cast<double>(1 << 20));
  // Idle tags sit below the floor on both sides: reported, not checked.
  EXPECT_FALSE(result.of(mem::Tag::kUntagged).checked);

  // The registry mirror carries the same numbers.
  const auto snap = obs::metrics::snapshot();
  EXPECT_DOUBLE_EQ(snap.value_of("memcheck.comm_buffers.measured_bytes"),
                   comm.measured_bytes);
  EXPECT_DOUBLE_EQ(snap.value_of("memcheck.comm_buffers.predicted_bytes"),
                   comm.predicted_bytes);
}

TEST(MemoryModelCheckerTest, MissingSubsystemFailsTheCheck) {
  ModeGuard guard(mem::Mode::kTrack);
  MemoryModelChecker checker;
  checker.begin();
  void* p = nullptr;
  {
    mem::ArenaScope scope(mem::Tag::kJournal);
    p = mem::allocate(1 << 20);
  }
  // Predicted zero but measured a megabyte: the model is missing a
  // subsystem and must say so.
  const auto result = checker.finish(MemoryPrediction{});
  mem::deallocate(p);
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.of(mem::Tag::kJournal).ok);
  EXPECT_GT(result.worst_rel_error, 0.10);
}

TEST(MemoryModelCheckerTest, JsonlAppendsTagsAndSummary) {
  ModeGuard guard(mem::Mode::kTrack);
  MemoryModelChecker checker;
  checker.begin();
  const auto result = checker.finish(MemoryPrediction{});
  const std::string path =
      (scratch_dir("memcheck") / "memcheck.jsonl").string();
  ASSERT_TRUE(append_memcheck_jsonl(path, result));
  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0;
  std::string last;
  while (std::getline(in, line)) {
    ++lines;
    last = line;
  }
  EXPECT_EQ(lines, mem::kNumTags + 1);  // one per tag + summary
  EXPECT_NE(last.find("\"summary\":true"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The acceptance gate: <= 10% per-tag error on a real tiny-GPT run
// ---------------------------------------------------------------------------

TEST(MemoryModelVsRuntimeTest, TinyGPTWithin10Percent) {
  ModeGuard guard(mem::Mode::kTrack);
  comm::run_ranks(1, [](comm::Communicator& world) {
    // Lanes are part of the packed-panels prediction, so pin the budget the
    // same way the config states it.
    GemmThreadScope lanes(1);

    train::TinyGPTConfig model_config;  // vocab 64, L2, h64, 4 heads
    model_config.overlap_collectives = false;

    core::Grid4D grid(world, sim::GridShape{1, 1, 1, 1});
    train::GPTModel model(grid, model_config);
    train::Adam adam;
    model.register_params(adam);

    train::SentinelConfig sentinel_config;
    sentinel_config.mode = integrity::IntegrityMode::kHeal;
    sentinel_config.journal_depth = 2;
    train::TrainingSentinel sentinel(sentinel_config, world, model, adam);
    ASSERT_TRUE(sentinel.enabled());

    constexpr std::size_t kBatch = 4;
    constexpr std::size_t kLen = 17;  // input_len 16 after the target shift
    std::vector<train::TokenSeq> batch(kBatch);
    Rng rng(7);
    for (auto& seq : batch) {
      seq.resize(kLen);
      for (auto& t : seq) {
        t = static_cast<std::int32_t>(rng.uniform_int(model_config.vocab));
      }
    }
    train::TrainCursor cursor;

    auto step = [&] {
      sentinel.journal(cursor);
      model.zero_grad();
      const float loss = model.train_step(batch);
      adam.step();
      sentinel.check_step(loss, cursor);
      ++cursor.step;
    };

    // Warm up until every steady-state allocation exists (caches, packed
    // panels, rs buffers, a full journal ring), then open the window.
    step();
    step();

    MemoryModelChecker checker(/*tolerance=*/0.10);
    checker.begin();
    step();
    step();
    step();

    MemoryModelConfig config;
    config.vocab = model_config.vocab;
    config.max_seq = model_config.max_seq;
    config.layers = model_config.layers;
    config.hidden = model_config.hidden;
    config.heads = model_config.heads;
    config.batch = static_cast<int>(kBatch);
    config.input_len = static_cast<int>(kLen) - 1;
    config.overlap_collectives = model_config.overlap_collectives;
    config.gemm_lanes = 1;
    config.journal_depth = sentinel_config.journal_depth;
    const auto result = checker.finish(predict_memory(config));

    for (const auto& tr : result.tags) {
      std::printf("  %-14s predicted %12.0f  measured %12.0f  rel %.4f%s\n",
                  mem::to_string(tr.tag), tr.predicted_bytes,
                  tr.measured_bytes, tr.rel_error,
                  tr.checked ? "" : "  (unchecked)");
    }
    EXPECT_TRUE(result.ok);
    EXPECT_LE(result.worst_rel_error, 0.10);
    // The run must be big enough that the gate means something: the
    // parameter-shaped tags and the activations must all clear the floor.
    for (const mem::Tag tag :
         {mem::Tag::kWeights, mem::Tag::kGrads, mem::Tag::kAdam,
          mem::Tag::kActivations, mem::Tag::kPackedPanels,
          mem::Tag::kCommBuffers, mem::Tag::kJournal}) {
      EXPECT_TRUE(result.of(tag).checked) << mem::to_string(tag);
    }
  });
}

// ---------------------------------------------------------------------------
// The planner integration: per-rank budgets prune the config search
// ---------------------------------------------------------------------------

TEST(RankConfigurationsTest, MemoryBudgetPrunesAndPopulatesPrediction) {
  const auto machine = sim::frontier();
  const auto db = sim::IntraNodeBandwidthDB::profile(machine);
  model::TrainingJob job{model::gpt_by_name("GPT-20B"), 16.8e6, true};
  const auto all = rank_configurations(job, machine, db, 512, false);
  ASSERT_GT(all.size(), 5u);
  for (const auto& rc : all) {
    EXPECT_GT(rc.predicted_mem_bytes, 0.0);
  }
  // A budget at the median prediction must mark roughly the upper half
  // memory-infeasible while leaving the rest intact.
  std::vector<double> mem;
  mem.reserve(all.size());
  for (const auto& rc : all) mem.push_back(rc.predicted_mem_bytes);
  std::sort(mem.begin(), mem.end());
  const double budget = mem[mem.size() / 2];
  const auto capped = rank_configurations(job, machine, db, 512, false, budget);
  ASSERT_EQ(capped.size(), all.size());  // require_memory_fit=false keeps all
  std::size_t feasible = 0;
  for (const auto& rc : capped) {
    if (rc.predicted_mem_bytes > budget) {
      EXPECT_FALSE(rc.memory_feasible);
    } else {
      ++feasible;
    }
  }
  EXPECT_GT(feasible, 0u);
  EXPECT_LT(feasible, capped.size());
}

}  // namespace
}  // namespace axonn::perf
