// The GPT trains bitwise identically at one and two GEMM lanes: every
// product (FC sublayers, LM head, attention) runs on gemm_tiled(), whose task
// grid depends on the problem shape only (DESIGN.md §13). KV-cached greedy
// decoding reproduces the teacher-forced logits bitwise (DESIGN.md §8).

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "axonn/base/rng.hpp"
#include "axonn/base/worker_pool.hpp"
#include "axonn/comm/thread_comm.hpp"
#include "axonn/tensor/gemm_dispatch.hpp"
#include "axonn/train/gpt_model.hpp"

namespace axonn::train {
namespace {

/// One rank's losses, then its parameters and both Adam moments.
struct RankState {
  std::vector<float> losses;
  std::vector<Matrix> tensors;
  int helper_lanes = 0;  ///< worker threads its GEMMs spawned
};

/// 3 Adam steps on a gz-rank Z grid, each rank on its share of 8 sequences.
/// hidden 48 gives mlp_up 192 output columns, two 128-column task groups,
/// so a second lane gets work on either grid.
std::vector<RankState> train(int gz, int lanes) {
  TinyGPTConfig config;
  config.vocab = 32;
  config.max_seq = 16;
  config.hidden = 48;
  Rng rng(21);
  std::vector<TokenSeq> batch(8, TokenSeq(16));
  for (auto& seq : batch) {
    for (auto& t : seq) t = static_cast<std::int32_t>(rng.uniform_int(32));
  }
  std::vector<RankState> states(static_cast<std::size_t>(gz));
  comm::WorldOptions options;
  options.gemm_threads = lanes;
  comm::run_ranks(
      gz,
      [&](comm::Communicator& world) {
        core::Grid4D grid(world, sim::GridShape{1, 1, gz, 1});
        GPTModel model(grid, config);
        Adam adam(AdamConfig{.lr = 5e-3f});
        model.register_params(adam);
        const auto share = static_cast<std::ptrdiff_t>(8 / gz);
        const auto first = batch.begin() + grid.z() * share;
        const std::vector<TokenSeq> shard(first, first + share);
        RankState& state = states[static_cast<std::size_t>(world.rank())];
        for (int step = 0; step < 3; ++step) {
          model.zero_grad();
          state.losses.push_back(model.train_step(shard));
          adam.step();
        }
        model.for_each_parameter(
            [&](Matrix& p) { state.tensors.push_back(p); });
        for (std::size_t i = 0; i < adam.num_params(); ++i) {
          state.tensors.push_back(adam.moment1(i));
          state.tensors.push_back(adam.moment2(i));
        }
        state.helper_lanes = WorkerTeam::this_thread().spawned();
      },
      options);
  set_gemm_threads(0);  // the world knob writes the process-global budget
  return states;
}

bool bitwise_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

class GPTLaneInvarianceTest : public testing::TestWithParam<int> {};

TEST_P(GPTLaneInvarianceTest, OneAndTwoLanesTrainBitwiseIdentically) {
  const int gz = GetParam();
  const std::vector<RankState> one = train(gz, 1);
  const std::vector<RankState> two = train(gz, 2);
  for (std::size_t rank = 0; rank < one.size(); ++rank) {
    SCOPED_TRACE(testing::Message() << "rank " << rank);
    EXPECT_EQ(one[rank].helper_lanes, 0);
    EXPECT_EQ(two[rank].helper_lanes, 1);  // the second lane really ran
    ASSERT_EQ(one[rank].losses.size(), 3u);
    EXPECT_EQ(std::memcmp(one[rank].losses.data(), two[rank].losses.data(),
                          3 * sizeof(float)),
              0);
    ASSERT_EQ(one[rank].tensors.size(), two[rank].tensors.size());
    for (std::size_t i = 0; i < one[rank].tensors.size(); ++i) {
      EXPECT_TRUE(bitwise_equal(one[rank].tensors[i], two[rank].tensors[i]))
          << "tensor " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grids, GPTLaneInvarianceTest, testing::Values(1, 2),
                         [](const testing::TestParamInfo<int>& info) {
                           return "gz" + std::to_string(info.param);
                         });

/// One rank's KV-cached decodes (a 5-token and a 1-token prompt) beside the
/// teacher-forced logits of each generated sequence.
struct DecodeState {
  std::vector<TokenSeq> generated;
  std::vector<Matrix> step_logits;
  std::vector<Matrix> full_logits;
  int helper_lanes = 0;
};

std::vector<DecodeState> decode(int gz, int lanes) {
  TinyGPTConfig config;
  config.vocab = 32;
  config.max_seq = 16;
  config.hidden = 48;
  const std::vector<TokenSeq> prompts{{3, 1, 4, 1, 5}, {9}};
  std::vector<DecodeState> states(static_cast<std::size_t>(gz));
  comm::WorldOptions options;
  options.gemm_threads = lanes;
  comm::run_ranks(
      gz,
      [&](comm::Communicator& world) {
        core::Grid4D grid(world, sim::GridShape{1, 1, gz, 1});
        GPTModel model(grid, config);
        DecodeState& state = states[static_cast<std::size_t>(world.rank())];
        for (const TokenSeq& prompt : prompts) {
          Matrix step_logits;
          const TokenSeq out = model.greedy_generate(
              prompt, static_cast<int>(config.max_seq + 1 - prompt.size()),
              &step_logits);
          state.full_logits.push_back(
              model.logits(TokenSeq(out.begin(), out.end() - 1)));
          state.generated.push_back(out);
          state.step_logits.push_back(std::move(step_logits));
        }
        state.helper_lanes = WorkerTeam::this_thread().spawned();
      },
      options);
  set_gemm_threads(0);
  return states;
}

class GPTCachedDecodeTest : public testing::TestWithParam<int> {};

TEST_P(GPTCachedDecodeTest, StepLogitsAreBitwiseTeacherForcedRows) {
  // Prefill, the one-row steps against the K/V cache and the LM head on the
  // last row only must reproduce the full forward's rows exactly, at either
  // lane count; the tokens then agree across lane counts too.
  const int gz = GetParam();
  const std::vector<DecodeState> one = decode(gz, 1);
  const std::vector<DecodeState> two = decode(gz, 2);
  for (const auto* states : {&one, &two}) {
    for (std::size_t rank = 0; rank < states->size(); ++rank) {
      const DecodeState& state = (*states)[rank];
      for (std::size_t p = 0; p < state.generated.size(); ++p) {
        const Matrix& steps = state.step_logits[p];
        const std::size_t prompt_len = state.generated[p].size() - steps.rows();
        ASSERT_EQ(state.generated[p].size(), 17u);
        for (std::size_t s = 0; s < steps.rows(); ++s) {
          EXPECT_EQ(std::memcmp(steps.row(s),
                                state.full_logits[p].row(prompt_len - 1 + s),
                                steps.cols() * sizeof(float)),
                    0)
              << "rank " << rank << " prompt " << p << " step " << s
              << " lanes " << (states == &one ? 1 : 2);
        }
      }
    }
  }
  for (std::size_t rank = 0; rank < one.size(); ++rank) {
    EXPECT_EQ(one[rank].helper_lanes, 0);
    EXPECT_EQ(two[rank].helper_lanes, 1);
    EXPECT_EQ(one[rank].generated, two[rank].generated);
  }
}

INSTANTIATE_TEST_SUITE_P(Grids, GPTCachedDecodeTest, testing::Values(1, 2),
                         [](const testing::TestParamInfo<int>& info) {
                           return "gz" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace axonn::train
