#include "axonn/model/gpt.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "axonn/base/error.hpp"

namespace axonn::model {
namespace {

TEST(GPTConfigTest, ZooHasNineModelsOfTableII) {
  const auto zoo = gpt_zoo();
  ASSERT_EQ(zoo.size(), 9u);
  EXPECT_EQ(zoo.front().name, "GPT-5B");
  EXPECT_EQ(zoo.back().name, "GPT-640B");
}

TEST(GPTConfigTest, TableIIHyperparameters) {
  const GPTConfig gpt80 = gpt_by_name("GPT-80B");
  EXPECT_EQ(gpt80.layers, 42);
  EXPECT_EQ(gpt80.hidden, 12288);
  EXPECT_EQ(gpt80.heads, 96);
  const GPTConfig gpt320 = gpt_by_name("GPT-320B");
  EXPECT_EQ(gpt320.layers, 96);
  EXPECT_EQ(gpt320.hidden, 16384);
  EXPECT_EQ(gpt320.heads, 128);
}

TEST(GPTConfigTest, UnknownModelThrows) {
  EXPECT_THROW(gpt_by_name("GPT-7T"), Error);
}

// The nominal parameter counts in the model names must match the exact
// layer-wise count within embedding-related slack. The name is a std::string
// because CTest names each case by GetParam()'s printed value, and a
// `const char*` prints as its (ASLR-randomized) address.
using NamedSize = std::pair<std::string, double>;

class ParamCountMatchesName : public ::testing::TestWithParam<NamedSize> {};

TEST_P(ParamCountMatchesName, WithinTenPercent) {
  const auto& [name, billions] = GetParam();
  const GPTConfig config = gpt_by_name(name);
  const double count = static_cast<double>(config.parameter_count());
  EXPECT_NEAR(count / 1e9, billions, billions * 0.10) << name;
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, ParamCountMatchesName,
    ::testing::Values(NamedSize{"GPT-5B", 5.0}, NamedSize{"GPT-10B", 10.0},
                      NamedSize{"GPT-20B", 20.0}, NamedSize{"GPT-40B", 40.0},
                      NamedSize{"GPT-60B", 60.0}, NamedSize{"GPT-80B", 80.0},
                      NamedSize{"GPT-160B", 160.0},
                      NamedSize{"GPT-320B", 320.0},
                      NamedSize{"GPT-640B", 640.0}));

TEST(GPTConfigTest, ApproxCountIsTwelveLHSquared) {
  const GPTConfig config = gpt_by_name("GPT-80B");
  EXPECT_EQ(config.parameter_count_approx(),
            12ull * 42 * 12288ull * 12288ull);
  // The exact count exceeds the approx count (embeddings, biases, norms).
  EXPECT_GT(config.parameter_count(), config.parameter_count_approx());
}

TEST(GPTConfigTest, FlopFormulaCheckpointingRatio) {
  const GPTConfig config = gpt_by_name("GPT-20B");
  const double with = config.flops_per_iteration(1e6, true);
  const double without = config.flops_per_iteration(1e6, false);
  // 96/72 = 4/3: recomputation adds exactly one forward pass.
  EXPECT_NEAR(with / without, 4.0 / 3.0, 1e-12);
}

TEST(GPTConfigTest, FlopFormulaScalesLinearlyInTokens) {
  const GPTConfig config = gpt_by_name("GPT-20B");
  EXPECT_NEAR(config.flops_per_iteration(2e6) / config.flops_per_iteration(1e6),
              2.0, 1e-12);
}

TEST(GPTConfigTest, FlopFormulaMatchesHandComputation) {
  // 96 B s l h^2 (1 + s/6h + V/16lh) for GPT-5B with batch of 1024 tokens.
  const GPTConfig c = gpt_by_name("GPT-5B");
  const double h = 4096, l = 24, s = 2048, v = 51200, tokens = 1024;
  const double expected =
      96.0 * tokens * l * h * h * (1.0 + s / (6 * h) + v / (16 * l * h));
  EXPECT_NEAR(c.flops_per_iteration(tokens, true), expected, expected * 1e-12);
}

TEST(GPTConfigTest, FCLayerShapes) {
  const GPTConfig config = gpt_by_name("GPT-5B");
  const auto fcs = config.fc_layers_per_block();
  ASSERT_EQ(fcs.size(), 4u);
  EXPECT_EQ(fcs[0].name, "qkv");
  EXPECT_EQ(fcs[0].in_features, 4096u);
  EXPECT_EQ(fcs[0].out_features, 3u * 4096u);
  EXPECT_EQ(fcs[3].name, "mlp_down");
  EXPECT_EQ(fcs[3].in_features, 4u * 4096u);
  EXPECT_EQ(fcs[3].out_features, 4096u);
  // Sum of FC weights = 12 h^2 per block.
  EXPECT_EQ(config.fc_params_per_block(), 12ull * 4096ull * 4096ull);
}

TEST(LlamaZooTest, MemorizationStudyModels) {
  const auto zoo = llama_zoo();
  ASSERT_EQ(zoo.size(), 7u);
  const GPTConfig l405 = gpt_by_name("Llama-3.1-405B");
  EXPECT_EQ(l405.layers, 126);
  EXPECT_EQ(l405.hidden, 16384);
  EXPECT_EQ(l405.vocab, 128256);
  const GPTConfig l7 = gpt_by_name("Llama-2-7B");
  EXPECT_EQ(l7.vocab, 32000);
}

TEST(TrainingJobTest, BatchSequences) {
  TrainingJob job{gpt_by_name("GPT-5B"), 16.8e6, true};
  EXPECT_NEAR(job.batch_sequences(), 16.8e6 / 2048.0, 1e-9);
}

TEST(MemoryModelTest, ShardingReducesFootprint) {
  TrainingJob job{gpt_by_name("GPT-20B"), 16.8e6, true};
  const auto serial = memory_per_gpu(job, 1, 1, 1, 1);
  const auto sharded = memory_per_gpu(job, 2, 2, 2, 4);
  EXPECT_LT(sharded.parameter_bytes, serial.parameter_bytes);
  EXPECT_LT(sharded.total(), serial.total());
  // Parameter-family terms shard by exactly Gx*Gy*Gz.
  EXPECT_NEAR(serial.parameter_bytes / sharded.parameter_bytes, 8.0, 1e-9);
  EXPECT_NEAR(serial.optimizer_bytes / sharded.optimizer_bytes, 8.0, 1e-9);
}

TEST(MemoryModelTest, MixedPrecisionAccounting) {
  TrainingJob job{gpt_by_name("GPT-5B"), 16.8e6, true};
  const auto est = memory_per_gpu(job, 1, 1, 1, 1);
  const double params = static_cast<double>(job.model.parameter_count());
  EXPECT_NEAR(est.parameter_bytes, 2.0 * params, 1.0);
  EXPECT_NEAR(est.gradient_bytes, 2.0 * params, 1.0);
  EXPECT_NEAR(est.optimizer_bytes, 12.0 * params, 1.0);
}

TEST(MemoryModelTest, CheckpointingShrinksActivations) {
  TrainingJob with{gpt_by_name("GPT-20B"), 16.8e6, true};
  TrainingJob without{gpt_by_name("GPT-20B"), 16.8e6, false};
  const auto a = memory_per_gpu(with, 2, 2, 2, 8);
  const auto b = memory_per_gpu(without, 2, 2, 2, 8);
  EXPECT_LT(a.activation_bytes, b.activation_bytes);
}

TEST(MemoryModelTest, DataParallelismShrinksActivationsOnlyBelowMicrobatch) {
  // With a batch small enough that the per-group share drops below the
  // micro-batch size, more data parallelism shrinks live activations.
  TrainingJob job{gpt_by_name("GPT-20B"), /*batch_tokens=*/32768, true};
  const auto d1 = memory_per_gpu(job, 2, 2, 2, 1);
  const auto d8 = memory_per_gpu(job, 2, 2, 2, 8);
  EXPECT_EQ(d1.parameter_bytes, d8.parameter_bytes);
  EXPECT_GT(d1.activation_bytes, d8.activation_bytes);
}

TEST(MemoryModelTest, MicrobatchingCapsActivations) {
  // Gradient accumulation: the huge 16.8M-token batch never lives in memory
  // at once, so activations are identical for any gdata whose share exceeds
  // the micro-batch size.
  TrainingJob job{gpt_by_name("GPT-20B"), 16.8e6, true};
  const auto a = memory_per_gpu(job, 2, 2, 2, 1);
  const auto b = memory_per_gpu(job, 2, 2, 2, 64);
  EXPECT_EQ(a.activation_bytes, b.activation_bytes);
  EXPECT_DOUBLE_EQ(job.live_tokens(1), job.microbatch_tokens);
}

TEST(MemoryModelTest, InvalidGridThrows) {
  TrainingJob job{gpt_by_name("GPT-5B"), 16.8e6, true};
  EXPECT_THROW(memory_per_gpu(job, 0, 1, 1, 1), Error);
}

}  // namespace
}  // namespace axonn::model
