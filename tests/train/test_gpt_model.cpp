#include "axonn/train/gpt_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "axonn/base/error.hpp"
#include "axonn/comm/thread_comm.hpp"
#include "axonn/tensor/bf16.hpp"

namespace axonn::train {
namespace {

TinyGPTConfig tiny_config() {
  TinyGPTConfig config;
  config.vocab = 16;
  config.max_seq = 24;
  config.layers = 2;
  config.hidden = 24;
  config.heads = 2;
  config.seed = 42;
  return config;
}

std::vector<TokenSeq> tiny_batch(std::size_t batch, std::size_t len,
                                 std::uint64_t seed, int vocab = 16) {
  Rng rng(seed);
  std::vector<TokenSeq> out(batch);
  for (auto& seq : out) {
    seq.resize(len);
    for (auto& t : seq) t = static_cast<std::int32_t>(rng.uniform_int(vocab));
  }
  return out;
}

TEST(GPTModelTest, ParameterCountMatchesRegisteredParams) {
  comm::run_ranks(1, [](comm::Communicator& world) {
    core::Grid4D grid(world, sim::GridShape{1, 1, 1, 1});
    GPTModel model(grid, tiny_config());
    Adam adam;
    model.register_params(adam);
    EXPECT_EQ(adam.total_parameter_count(), model.parameter_count());
  });
}

TEST(GPTModelTest, LossDecreasesOnFixedBatch) {
  comm::run_ranks(1, [](comm::Communicator& world) {
    core::Grid4D grid(world, sim::GridShape{1, 1, 1, 1});
    GPTModel model(grid, tiny_config());
    Adam adam(AdamConfig{.lr = 5e-3f});
    model.register_params(adam);
    const auto batch = tiny_batch(2, 24, 1);
    float first = 0, last = 0;
    for (int step = 0; step < 25; ++step) {
      model.zero_grad();
      const float loss = model.train_step(batch);
      adam.step();
      if (step == 0) first = loss;
      last = loss;
    }
    EXPECT_LT(last, first * 0.5f);
  });
}

TEST(GPTModelTest, InitialLossNearLogVocab) {
  comm::run_ranks(1, [](comm::Communicator& world) {
    core::Grid4D grid(world, sim::GridShape{1, 1, 1, 1});
    GPTModel model(grid, tiny_config());
    const float loss = model.evaluate_loss(tiny_batch(4, 24, 2));
    EXPECT_NEAR(loss, std::log(16.0f), 0.8f);
  });
}

TEST(GPTModelTest, MixedPrecisionRoundsEveryLmHeadProduct) {
  // Under mixed_precision the LM head follows the FC rule: its forward NN
  // and both backward products (NT for the input grad, TN for the weight
  // grad) consume bf16-rounded operands. Replacing the LM-head weight by its
  // own bf16 rounding therefore changes no operand any GEMM sees, and the
  // loss and every gradient must come out bitwise unchanged. An fp32 NT
  // product would read the unrounded weight and move every gradient below
  // the head.
  TinyGPTConfig config = tiny_config();
  config.mixed_precision = true;
  const auto batch = tiny_batch(2, 24, 3);
  struct StepResult {
    float loss = 0;
    std::vector<Matrix> grads;
  };
  const auto run_step = [&](bool round_lm_head) {
    StepResult result;
    comm::run_ranks(1, [&](comm::Communicator& world) {
      core::Grid4D grid(world, sim::GridShape{1, 1, 1, 1});
      GPTModel model(grid, config);
      if (round_lm_head) {
        Matrix* lm_head = nullptr;  // for_each_parameter visits it last
        model.for_each_parameter([&](Matrix& p) { lm_head = &p; });
        float changed = 0;
        for (std::size_t i = 0; i < lm_head->size(); ++i) {
          float& w = lm_head->data()[i];
          changed = std::max(changed, std::abs(w - bf16_round(w)));
          w = bf16_round(w);
        }
        ASSERT_GT(changed, 0.0f);
      }
      model.zero_grad();
      result.loss = model.train_step(batch);
      model.for_each_gradient([&](Matrix& g) { result.grads.push_back(g); });
    });
    return result;
  };
  const StepResult exact = run_step(false);
  const StepResult rounded = run_step(true);
  EXPECT_EQ(exact.loss, rounded.loss);
  ASSERT_EQ(exact.grads.size(), rounded.grads.size());
  for (std::size_t i = 0; i < exact.grads.size(); ++i) {
    EXPECT_EQ(Matrix::max_abs_diff(exact.grads[i], rounded.grads[i]), 0.0f)
        << "gradient tensor " << i;
  }
}

TEST(GPTModelTest, AnalyticGradientsMatchCentralDifferences) {
  // train_step's backward (attention included) against central differences
  // of evaluate_loss, on entries of the QKV weight (in its Q, K and V column
  // blocks, so every attention gradient path is exercised) and
  // of pos_emb (the path through every block's attention). fp32 losses with
  // eps = 1e-2 leave ~1e-5 of rounding and truncation error in a difference
  // quotient; the tolerance is 1e-4 absolute plus 1% of the gradient.
  constexpr float kEps = 1e-2f;
  const auto batch = tiny_batch(2, 12, 5);
  comm::run_ranks(1, [&](comm::Communicator& world) {
    core::Grid4D grid(world, sim::GridShape{1, 1, 1, 1});
    TinyGPTConfig config = tiny_config();
    config.init_std = 0.2f;  // gradients well above the rounding noise
    GPTModel model(grid, config);
    std::vector<Matrix*> params, grads;
    model.for_each_parameter([&](Matrix& p) { params.push_back(&p); });
    model.for_each_gradient([&](Matrix& g) { grads.push_back(&g); });
    model.zero_grad();
    model.train_step(batch);

    // Registration order: tok_emb, pos_emb, then per block the four
    // layernorm vectors before the QKV shard (hidden x 3*hidden).
    constexpr std::size_t kPosEmb = 1;
    constexpr std::size_t kQkv = 6;
    const std::size_t h = static_cast<std::size_t>(config.hidden);
    ASSERT_EQ(params[kQkv]->cols(), 3 * h);
    struct Entry {
      std::size_t tensor, row, col;
    };
    const Entry entries[] = {{kQkv, 3, 1},        {kQkv, 10, h + 5},
                             {kQkv, 17, 2 * h + 7}, {kQkv, 0, h + h / 2},
                             {kPosEmb, 0, 4},       {kPosEmb, 5, 11},
                             {kPosEmb, 10, 20}};
    for (const Entry& e : entries) {
      float& w = (*params[e.tensor])(e.row, e.col);
      const float analytic = (*grads[e.tensor])(e.row, e.col);
      const float original = w;
      w = original + kEps;
      const float up = model.evaluate_loss(batch);
      w = original - kEps;
      const float down = model.evaluate_loss(batch);
      w = original;
      const float numeric = (up - down) / (2.0f * kEps);
      EXPECT_NEAR(analytic, numeric, 1e-4f + 0.01f * std::abs(numeric))
          << "tensor " << e.tensor << " (" << e.row << ", " << e.col << ")";
    }
  });
}

TEST(GPTModelTest, LogitsAreCausal) {
  // Changing token j may move the logits at positions >= j only: every row
  // before j must come out bitwise unchanged.
  comm::run_ranks(1, [](comm::Communicator& world) {
    core::Grid4D grid(world, sim::GridShape{1, 1, 1, 1});
    GPTModel model(grid, tiny_config());
    const TokenSeq tokens = tiny_batch(1, 20, 6).front();
    const Matrix base = model.logits(tokens);
    ASSERT_EQ(base.rows(), tokens.size());
    for (const std::size_t j : {std::size_t{1}, std::size_t{9},
                                tokens.size() - 1}) {
      TokenSeq changed = tokens;
      changed[j] = (changed[j] + 5) % 16;
      const Matrix moved = model.logits(changed);
      const auto same_row = [&](std::size_t i) {
        return std::memcmp(base.row(i), moved.row(i),
                           base.cols() * sizeof(float)) == 0;
      };
      for (std::size_t i = 0; i < j; ++i) {
        EXPECT_TRUE(same_row(i)) << "row " << i << ", token " << j;
      }
      EXPECT_FALSE(same_row(j)) << "token " << j << " reaches no row";
    }
  });
}

TEST(GPTModelTest, ZShardingMatchesSerialTraining) {
  // FSDP semantics: 2 Z-ranks each process half the batch; the weight
  // updates must equal single-rank training on the full batch.
  const auto batch = tiny_batch(4, 24, 3);
  float serial_loss_after = 0;
  comm::run_ranks(1, [&](comm::Communicator& world) {
    core::Grid4D grid(world, sim::GridShape{1, 1, 1, 1});
    GPTModel model(grid, tiny_config());
    Adam adam(AdamConfig{.lr = 1e-3f});
    model.register_params(adam);
    for (int step = 0; step < 3; ++step) {
      model.zero_grad();
      model.train_step(batch);
      adam.step();
    }
    serial_loss_after = model.evaluate_loss(batch);
  });

  float sharded_loss_after = 0;
  comm::run_ranks(2, [&](comm::Communicator& world) {
    core::Grid4D grid(world, sim::GridShape{1, 1, 2, 1});
    GPTModel model(grid, tiny_config());
    Adam adam(AdamConfig{.lr = 1e-3f});
    model.register_params(adam);
    // Each Z rank takes its half of the batch.
    const std::vector<TokenSeq> half(
        batch.begin() + grid.z() * 2, batch.begin() + grid.z() * 2 + 2);
    for (int step = 0; step < 3; ++step) {
      model.zero_grad();
      model.train_step(half);
      adam.step();
    }
    // evaluate_loss is collective when gz > 1 (weight all-gathers): every
    // rank must participate.
    const float loss = model.evaluate_loss(batch);
    if (world.rank() == 0) {
      sharded_loss_after = loss;
    }
  });
  EXPECT_NEAR(sharded_loss_after, serial_loss_after, 5e-3f);
}

TEST(GPTModelTest, DataParallelMatchesSerialTraining) {
  const auto batch = tiny_batch(4, 24, 3);
  float serial_loss_after = 0;
  comm::run_ranks(1, [&](comm::Communicator& world) {
    core::Grid4D grid(world, sim::GridShape{1, 1, 1, 1});
    GPTModel model(grid, tiny_config());
    Adam adam(AdamConfig{.lr = 1e-3f});
    model.register_params(adam);
    model.zero_grad();
    model.train_step(batch);
    adam.step();
    serial_loss_after = model.evaluate_loss(batch);
  });

  float dp_loss_after = 0;
  comm::run_ranks(2, [&](comm::Communicator& world) {
    core::Grid4D grid(world, sim::GridShape{1, 1, 1, 2});
    GPTModel model(grid, tiny_config());
    Adam adam(AdamConfig{.lr = 1e-3f});
    model.register_params(adam);
    const std::vector<TokenSeq> shard(
        batch.begin() + grid.d() * 2, batch.begin() + grid.d() * 2 + 2);
    model.zero_grad();
    model.train_step(shard);
    adam.step();
    if (world.rank() == 0) {
      dp_loss_after = model.evaluate_loss(batch);
    }
  });
  EXPECT_NEAR(dp_loss_after, serial_loss_after, 5e-3f);
}

TEST(GPTModelTest, GreedyGenerationDeterministic) {
  comm::run_ranks(1, [](comm::Communicator& world) {
    core::Grid4D grid(world, sim::GridShape{1, 1, 1, 1});
    GPTModel model(grid, tiny_config());
    const TokenSeq prompt{1, 2, 3, 4};
    const TokenSeq a = model.greedy_generate(prompt, 6);
    const TokenSeq b = model.greedy_generate(prompt, 6);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.size(), 10u);
    // The prompt is preserved as a prefix.
    for (std::size_t i = 0; i < prompt.size(); ++i) {
      EXPECT_EQ(a[i], prompt[i]);
    }
  });
}

TEST(GPTModelTest, GreedyGenerationPastMaxSeqThrows) {
  // max_seq 24: from a 20-token prompt, 5 new tokens embed positions up to
  // 23; a 6th would need position 24, and nothing may run before the throw.
  comm::run_ranks(1, [](comm::Communicator& world) {
    core::Grid4D grid(world, sim::GridShape{1, 1, 1, 1});
    GPTModel model(grid, tiny_config());
    const TokenSeq prompt = tiny_batch(1, 20, 12).front();
    EXPECT_EQ(model.greedy_generate(prompt, 5).size(), 25u);
    EXPECT_THROW(model.greedy_generate(prompt, 6), Error);
    EXPECT_THROW(model.greedy_generate(tiny_batch(1, 25, 13).front(), 1),
                 Error);
  });
}

TEST(GPTModelTest, ExactMatchAgreesWithGreedyGeneration) {
  // The teacher-forced shortcut must decide exactly the same event as
  // actually generating the probe region greedily.
  comm::run_ranks(1, [](comm::Communicator& world) {
    core::Grid4D grid(world, sim::GridShape{1, 1, 1, 1});
    GPTModel model(grid, tiny_config());
    Adam adam(AdamConfig{.lr = 5e-3f});
    model.register_params(adam);
    const auto docs = tiny_batch(3, 20, 9);
    // Train on doc 0 heavily so at least one doc is memorized.
    for (int step = 0; step < 30; ++step) {
      model.zero_grad();
      model.train_step({docs[0]});
      adam.step();
    }
    for (const auto& doc : docs) {
      const int probe = 5;
      const TokenSeq prompt(doc.begin(), doc.end() - probe);
      const TokenSeq generated = model.greedy_generate(prompt, probe);
      EXPECT_EQ(model.exact_match(doc, probe), sequences_equal(generated, doc));
    }
  });
}

TEST(GPTModelTest, ProbeAccuracyBounds) {
  comm::run_ranks(1, [](comm::Communicator& world) {
    core::Grid4D grid(world, sim::GridShape{1, 1, 1, 1});
    GPTModel model(grid, tiny_config());
    const auto docs = tiny_batch(1, 20, 10);
    const double acc = model.probe_accuracy(docs[0], 8);
    EXPECT_GE(acc, 0.0);
    EXPECT_LE(acc, 1.0);
    // exact_match true iff accuracy == 1.
    EXPECT_EQ(model.exact_match(docs[0], 8), acc == 1.0);
  });
}

TEST(GPTModelTest, GoldfishMaskReducesTrainedPositions) {
  // With goldfish on, the loss is computed over ~half the targets; training
  // still works and the step runs without error.
  comm::run_ranks(1, [](comm::Communicator& world) {
    core::Grid4D grid(world, sim::GridShape{1, 1, 1, 1});
    GPTModel model(grid, tiny_config());
    Adam adam(AdamConfig{.lr = 5e-3f});
    model.register_params(adam);
    GoldfishConfig goldfish{.k = 2, .h = 5};
    const auto batch = tiny_batch(2, 24, 11);
    float first = 0, last = 0;
    for (int step = 0; step < 20; ++step) {
      model.zero_grad();
      const float loss = model.train_step(batch, &goldfish);
      adam.step();
      if (step == 0) first = loss;
      last = loss;
    }
    EXPECT_LT(last, first);
  });
}

TEST(GPTModelTest, RejectsXYTensorParallelGrids) {
  EXPECT_THROW(
      comm::run_ranks(2,
                      [](comm::Communicator& world) {
                        core::Grid4D grid(world, sim::GridShape{2, 1, 1, 1});
                        GPTModel model(grid, tiny_config());
                      }),
      Error);
}

TEST(GPTModelTest, RaggedBatchThrows) {
  comm::run_ranks(1, [](comm::Communicator& world) {
    core::Grid4D grid(world, sim::GridShape{1, 1, 1, 1});
    GPTModel model(grid, tiny_config());
    std::vector<TokenSeq> ragged{{1, 2, 3}, {1, 2}};
    EXPECT_THROW(model.train_step(ragged), Error);
  });
}

}  // namespace
}  // namespace axonn::train
