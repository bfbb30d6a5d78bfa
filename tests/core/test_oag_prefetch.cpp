// The stale-weight OAG prefetch regression (DESIGN.md §12): a weight
// all-gather issued by begin_weight_gather() and then invalidated by an
// optimizer step must be discarded — never adopted — so the next forward
// computes with the *updated* weights, bit-identically to the blocking
// gather path. Before the fix the prefetch landed directly in the weight
// cache while apply_sgd() mutated the very shard the progress thread was
// reading: silently-wrong output under OAG plus a data race on
// weight_shard_ (the tsan label on this binary pins the race half).

#include "axonn/core/fc_layer.hpp"

#include <gtest/gtest.h>

#include "axonn/comm/thread_comm.hpp"

namespace axonn::core {
namespace {

constexpr std::uint64_t kSeed = 4321;
constexpr std::size_t kRows = 12;
constexpr std::size_t kIn = 16;
constexpr std::size_t kOut = 20;

Matrix reference_input() {
  Rng rng(77);
  return Matrix::randn(kRows, kIn, rng);
}

Matrix reference_grad_output() {
  Rng rng(33);
  return Matrix::randn(kRows, kOut, rng);
}

// One fwd+bwd+SGD step to make the *next* forward depend on the update.
void take_training_step(TensorParallelFC& fc, const Matrix& full_input,
                        const Matrix& full_dout, float lr) {
  const Matrix input_local = fc.scatter_input(full_input);
  fc.forward(input_local);
  fc.backward(
      full_dout.block(fc.input_row_range(kRows), fc.output_col_range()));
  fc.apply_sgd(lr);
}

// Runs the scenario on a Z=4 grid and returns rank 0's post-update forward
// output. `scenario` controls what happens between the weight update and the
// forward that must see the new weights.
enum class Scenario {
  kBlocking,            // no prefetch at all: the golden path
  kStaleThenReissue,    // prefetch, update, begin_weight_gather() again
  kStaleConsumedDirect  // prefetch, update, forward() with no reissue
};

Matrix run_scenario(Scenario scenario, GemmBackend backend) {
  const Matrix full_input = reference_input();
  const Matrix full_dout = reference_grad_output();
  Matrix out0;
  comm::run_ranks(4, [&](comm::Communicator& world) {
    Grid4D grid(world, sim::GridShape{1, 1, 4, 1});
    FCOptions options;
    options.gemm_backend = backend;
    TensorParallelFC fc(grid, kIn, kOut, kSeed, options);

    if (scenario != Scenario::kBlocking) {
      // Prefetch of the PRE-update weights: made stale by apply_sgd below.
      fc.begin_weight_gather();
    }
    take_training_step(fc, full_input, full_dout, /*lr=*/0.1f);
    if (scenario == Scenario::kStaleThenReissue) {
      // The training loop's next-iteration prefetch: must drain and discard
      // the stale gather, then reissue against the updated shard.
      fc.begin_weight_gather();
    }

    const Matrix out = fc.forward(fc.scatter_input(full_input));
    if (world.rank() == 0) out0 = out;
  });
  return out0;
}

TEST(OagPrefetchTest, StalePrefetchDiscardedOnReissue) {
  const Matrix golden = run_scenario(Scenario::kBlocking, GemmBackend::kReference);
  const Matrix prefetched =
      run_scenario(Scenario::kStaleThenReissue, GemmBackend::kReference);
  ASSERT_GT(golden.max_abs(), 0.0f);
  EXPECT_EQ(Matrix::max_abs_diff(golden, prefetched), 0.0f);
}

TEST(OagPrefetchTest, StalePrefetchDiscardedWhenForwardConsumesIt) {
  // forward() itself must notice the version mismatch and fall back to a
  // fresh blocking gather — no reissue call to help it.
  const Matrix golden = run_scenario(Scenario::kBlocking, GemmBackend::kReference);
  const Matrix direct =
      run_scenario(Scenario::kStaleConsumedDirect, GemmBackend::kReference);
  EXPECT_EQ(Matrix::max_abs_diff(golden, direct), 0.0f);
}

TEST(OagPrefetchTest, StalePrefetchDiscardedWithTiledPrepack) {
  // The same stale-prefetch discard on the tiled backend: its forward packs
  // the adopted (or re-gathered) block, never the stale prefetch.
  const Matrix golden = run_scenario(Scenario::kBlocking, GemmBackend::kTiled);
  const Matrix reissued =
      run_scenario(Scenario::kStaleThenReissue, GemmBackend::kTiled);
  const Matrix direct =
      run_scenario(Scenario::kStaleConsumedDirect, GemmBackend::kTiled);
  EXPECT_EQ(Matrix::max_abs_diff(golden, reissued), 0.0f);
  EXPECT_EQ(Matrix::max_abs_diff(golden, direct), 0.0f);
}

TEST(OagPrefetchTest, FreshPrefetchSurvivesTrainingLoop) {
  // Several iterations of the real usage pattern — prefetch next forward's
  // gather, step, forward — against the blocking path, bit-identical at
  // every step. Under TSan this is also the race regression: each in-flight
  // gather overlaps an apply_sgd() on the shard it snapshotted.
  const Matrix full_input = reference_input();
  const Matrix full_dout = reference_grad_output();

  Matrix out_blocking, out_prefetch;
  for (int pass = 0; pass < 2; ++pass) {
    const bool prefetch = pass == 1;
    Matrix last;
    comm::run_ranks(4, [&](comm::Communicator& world) {
      Grid4D grid(world, sim::GridShape{1, 1, 4, 1});
      FCOptions options;
      options.overlap_input_grad_all_reduce = prefetch;
      options.overlap_weight_grad_reduce_scatter = prefetch;
      TensorParallelFC fc(grid, kIn, kOut, kSeed, options);
      const Matrix input_local = fc.scatter_input(full_input);
      const Matrix dout_local =
          full_dout.block(fc.input_row_range(kRows), fc.output_col_range());
      Matrix out;
      for (int step = 0; step < 4; ++step) {
        if (prefetch) fc.begin_weight_gather();
        out = fc.forward(input_local);
        fc.backward(dout_local);
        // The prefetch a real loop would issue for the next forward — this
        // is the one apply_sgd() makes stale while it is in flight.
        if (prefetch) fc.begin_weight_gather();
        fc.apply_sgd(0.05f);
        fc.zero_grad();
      }
      if (world.rank() == 0) last = out;
    });
    (prefetch ? out_prefetch : out_blocking) = last;
  }
  ASSERT_GT(out_blocking.max_abs(), 0.0f);
  EXPECT_EQ(Matrix::max_abs_diff(out_blocking, out_prefetch), 0.0f);
}

TEST(OagPrefetchTest, RedundantBeginIsIdempotentWhileFresh) {
  // Two begin_weight_gather() calls with no intervening invalidation issue
  // exactly one collective (the second is a no-op) — the z-comm all_gather
  // counter pins it.
  comm::run_ranks(4, [&](comm::Communicator& world) {
    Grid4D grid(world, sim::GridShape{1, 1, 4, 1});
    TensorParallelFC fc(grid, kIn, kOut, kSeed);
    const std::uint64_t before = grid.z_comm().stats().all_gather_calls;
    fc.begin_weight_gather();
    fc.begin_weight_gather();
    const Matrix out = fc.forward(fc.scatter_input(reference_input()));
    EXPECT_GT(out.max_abs(), 0.0f);
    EXPECT_EQ(grid.z_comm().stats().all_gather_calls, before + 1);
  });
}

}  // namespace
}  // namespace axonn::core
