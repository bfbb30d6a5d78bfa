// The Algorithm 1 MLP on the fc4d_x2z2 benchmark grid (2x1x2 with OAR, ORS
// and OAG on) trains bitwise identically when run twice with the same seed:
// the overlap lanes change when a collective completes, never what it sums.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "axonn/base/rng.hpp"
#include "axonn/comm/thread_comm.hpp"
#include "axonn/core/mlp.hpp"

namespace axonn::core {
namespace {

/// One rank's loss per step, then its weight shards after the last step.
struct RankState {
  std::vector<float> losses;
  std::vector<Matrix> weights;
};

/// 3 SGD steps of 0.5 ||out - target||^2 on the benchmark's smoke shape.
std::vector<RankState> train() {
  const std::vector<std::size_t> dims{16, 32, 16, 32, 16};
  constexpr std::size_t kRows = 16;
  Rng rng(5);
  const Matrix input = Matrix::randn(kRows, dims.front(), rng);
  const Matrix target = Matrix::randn(kRows, dims.back(), rng);
  MLPOptions options;
  options.overlap_input_grad_all_reduce = true;       // OAR
  options.overlap_weight_grad_reduce_scatter = true;  // ORS
  options.overlap_weight_all_gather = true;           // OAG

  std::vector<RankState> states(4);
  comm::run_ranks(4, [&](comm::Communicator& world) {
    Grid4D grid(world, sim::GridShape{2, 1, 2, 1});
    TensorParallelMLP mlp(grid, dims, /*seed=*/3, options);
    const auto& last = mlp.layer(mlp.num_layers() - 1);
    const Matrix target_local =
        target.block(last.input_row_range(kRows), last.output_col_range());
    RankState& state = states[static_cast<std::size_t>(world.rank())];
    for (int step = 0; step < 3; ++step) {
      mlp.zero_grad();
      Matrix grad = mlp.forward(mlp.scatter_input(input));
      grad.axpy_inplace(-1.0f, target_local);
      double sq = 0;
      for (std::size_t i = 0; i < grad.size(); ++i) {
        sq += double(grad.data()[i]) * grad.data()[i];
      }
      state.losses.push_back(static_cast<float>(0.5 * sq));
      mlp.backward(grad);
      mlp.sync_gradients_data_parallel();
      mlp.apply_sgd(0.01f);
    }
    for (std::size_t i = 0; i < mlp.num_layers(); ++i) {
      state.weights.push_back(mlp.layer(i).weight_shard());
    }
  });
  return states;
}

TEST(MLPDeterminismTest, Fc4dGridTrainsBitwiseIdenticallyTwice) {
  const std::vector<RankState> first = train();
  const std::vector<RankState> second = train();
  for (std::size_t rank = 0; rank < first.size(); ++rank) {
    SCOPED_TRACE(testing::Message() << "rank " << rank);
    const RankState& a = first[rank];
    const RankState& b = second[rank];
    ASSERT_EQ(a.losses.size(), 3u);
    EXPECT_NE(a.losses.front(), a.losses.back());  // the steps trained
    EXPECT_EQ(std::memcmp(a.losses.data(), b.losses.data(),
                          a.losses.size() * sizeof(float)),
              0);
    ASSERT_EQ(a.weights.size(), b.weights.size());
    for (std::size_t i = 0; i < a.weights.size(); ++i) {
      ASSERT_EQ(a.weights[i].size(), b.weights[i].size());
      EXPECT_EQ(std::memcmp(a.weights[i].data(), b.weights[i].data(),
                            a.weights[i].size() * sizeof(float)),
                0)
          << "layer " << i;
    }
  }
}

}  // namespace
}  // namespace axonn::core
