// Equivalence of Algorithm 1 with serial execution, across grid shapes —
// the central correctness claim of the 4D algorithm (§V-A).

#include "axonn/core/fc_layer.hpp"

#include <gtest/gtest.h>

#include <span>

#include "axonn/comm/thread_comm.hpp"
#include "axonn/core/comm_check.hpp"
#include "axonn/perf/comm_model.hpp"

namespace axonn::core {
namespace {

constexpr std::uint64_t kSeed = 1234;
constexpr std::size_t kRows = 12;   // group batch rows
constexpr std::size_t kIn = 16;
constexpr std::size_t kOut = 20;

// The exact full weight the layer constructs internally.
Matrix reference_weight(std::size_t in, std::size_t out, float init_std) {
  Rng rng(kSeed);
  return Matrix::randn(in, out, rng, 0.0f, init_std);
}

Matrix reference_input() {
  Rng rng(99);
  return Matrix::randn(kRows, kIn, rng);
}

Matrix reference_grad_output() {
  Rng rng(55);
  return Matrix::randn(kRows, kOut, rng);
}

struct GridCase {
  int gx, gy, gz;
  bool transposed;
};

// Names each case by its fields (e.g. "gx2_gy2_gz2_transposed"), so test
// names are stable instead of a dump of the struct's bytes and padding.
void PrintTo(const GridCase& c, std::ostream* os) {
  *os << "gx" << c.gx << "_gy" << c.gy << "_gz" << c.gz
      << (c.transposed ? "_transposed" : "");
}

class FCEquivalence : public ::testing::TestWithParam<GridCase> {};

TEST_P(FCEquivalence, ForwardAndBackwardMatchSerial) {
  const GridCase param = GetParam();
  const sim::GridShape shape{param.gx, param.gy, param.gz, 1};
  const Matrix full_input = reference_input();
  const Matrix full_dout = reference_grad_output();
  const Matrix w = reference_weight(kIn, kOut, 0.02f);

  // Serial references.
  const Matrix o_ref = gemm(GemmMode::kNN, full_input, w);
  const Matrix di_ref = gemm(GemmMode::kNT, full_dout, w);
  const Matrix dw_ref = gemm(GemmMode::kTN, full_input, full_dout);

  comm::run_ranks(static_cast<int>(shape.total()), [&](comm::Communicator&
                                                           world) {
    Grid4D grid(world, shape);
    FCOptions options;
    options.transposed = param.transposed;
    TensorParallelFC fc(grid, kIn, kOut, kSeed, options);

    const Matrix input_local = fc.scatter_input(full_input);
    const Matrix out_local = fc.forward(input_local);

    // The local output must equal the corresponding block of the serial
    // output: rows by Z coordinate, columns by the layer's column group.
    const Range row_range = fc.input_row_range(kRows);
    const Matrix expected_out = o_ref.block(row_range, fc.output_col_range());
    EXPECT_LT(Matrix::max_abs_diff(out_local, expected_out), 2e-4f);

    // Backward.
    const Matrix dout_local =
        full_dout.block(row_range, fc.output_col_range());
    const Matrix din_local = fc.backward(dout_local);
    fc.finish_gradients();

    const Matrix expected_din =
        di_ref.block(row_range, fc.input_col_range());
    EXPECT_LT(Matrix::max_abs_diff(din_local, expected_din), 2e-4f);

    // Weight gradient: this rank's Z-shard of its (row, col) block of dW.
    const Matrix dw_block =
        dw_ref.block(fc.input_col_range(), fc.output_col_range());
    const Range z_rows =
        chunk_range(dw_block.rows(), static_cast<std::size_t>(shape.gz),
                    static_cast<std::size_t>(grid.z()));
    const Matrix expected_dw =
        dw_block.block(z_rows, Range{0, dw_block.cols()});
    EXPECT_LT(Matrix::max_abs_diff(fc.weight_grad_shard(), expected_dw), 2e-4f);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Grids, FCEquivalence,
    ::testing::Values(GridCase{1, 1, 1, false},  // serial
                      GridCase{2, 1, 1, false},  // Megatron-like (X only)
                      GridCase{1, 2, 1, false},  // Y only
                      GridCase{1, 1, 2, false},  // FSDP/ZeRO-3-like (Z only)
                      GridCase{1, 1, 4, false},  // deeper Z sharding
                      GridCase{2, 2, 1, false},  // 2D tensor parallel
                      GridCase{2, 1, 2, false}, GridCase{1, 2, 2, false},
                      GridCase{2, 2, 2, false},  // full 3D
                      GridCase{2, 2, 2, true},   // transposed roles
                      GridCase{4, 2, 1, false},  // non-square grid
                      GridCase{1, 4, 2, true}));

TEST(FCLayerTest, OverlapModesAreNumericallyIdentical) {
  const Matrix full_input = reference_input();
  const Matrix full_dout = reference_grad_output();
  const sim::GridShape shape{2, 1, 2, 1};

  Matrix grad_sync, grad_async, din_sync, din_async;
  for (int pass = 0; pass < 2; ++pass) {
    const bool async = pass == 1;
    comm::run_ranks(4, [&](comm::Communicator& world) {
      Grid4D grid(world, shape);
      FCOptions options;
      options.overlap_input_grad_all_reduce = async;
      options.overlap_weight_grad_reduce_scatter = async;
      TensorParallelFC fc(grid, kIn, kOut, kSeed, options);
      if (async) fc.begin_weight_gather();  // OAG prefetch

      const Matrix input_local = fc.scatter_input(full_input);
      const Matrix out = fc.forward(input_local);
      const Matrix dout_local = full_dout.block(fc.input_row_range(kRows),
                                                fc.output_col_range());
      const Matrix din = fc.backward(dout_local);
      fc.finish_gradients();
      if (world.rank() == 0) {
        if (async) {
          grad_async = fc.weight_grad_shard();
          din_async = din;
        } else {
          grad_sync = fc.weight_grad_shard();
          din_sync = din;
        }
      }
    });
  }
  EXPECT_EQ(Matrix::max_abs_diff(grad_sync, grad_async), 0.0f);
  EXPECT_EQ(Matrix::max_abs_diff(din_sync, din_async), 0.0f);
}

TEST(FCLayerTest, GradientsAccumulateAcrossMicrobatches) {
  comm::run_ranks(4, [&](comm::Communicator& world) {
    Grid4D grid(world, sim::GridShape{2, 1, 2, 1});
    TensorParallelFC fc(grid, kIn, kOut, kSeed);
    const Matrix full_input = reference_input();
    const Matrix full_dout = reference_grad_output();
    const Matrix input_local = fc.scatter_input(full_input);
    const Matrix dout_local = full_dout.block(fc.input_row_range(kRows),
                                              fc.output_col_range());
    fc.forward(input_local);
    fc.backward(dout_local);
    const Matrix after_one = fc.weight_grad_shard();
    fc.forward(input_local);
    fc.backward(dout_local);
    Matrix doubled = after_one;
    doubled.scale_inplace(2.0f);
    EXPECT_LT(Matrix::max_abs_diff(fc.weight_grad_shard(), doubled), 1e-5f);
    fc.zero_grad();
    EXPECT_EQ(fc.weight_grad_shard().max_abs(), 0.0f);
  });
}

TEST(FCLayerTest, SgdStepMatchesSerial) {
  const float lr = 0.1f;
  const Matrix full_input = reference_input();
  const Matrix full_dout = reference_grad_output();
  // Serial update: W' = W - lr * I^T dO.
  Matrix w_ref = reference_weight(kIn, kOut, 0.02f);
  w_ref.axpy_inplace(-lr, gemm(GemmMode::kTN, full_input, full_dout));

  comm::run_ranks(8, [&](comm::Communicator& world) {
    Grid4D grid(world, sim::GridShape{2, 2, 2, 1});
    TensorParallelFC fc(grid, kIn, kOut, kSeed);
    fc.forward(fc.scatter_input(full_input));
    fc.backward(full_dout.block(fc.input_row_range(kRows),
                                fc.output_col_range()));
    fc.apply_sgd(lr);
    const Matrix block = fc.gather_weight_block();
    const Matrix expected =
        w_ref.block(fc.input_col_range(), fc.output_col_range());
    EXPECT_LT(Matrix::max_abs_diff(block, expected), 1e-5f);
  });
}

TEST(FCLayerTest, MixedPrecisionStaysCloseToFp32) {
  const Matrix full_input = reference_input();
  comm::run_ranks(2, [&](comm::Communicator& world) {
    Grid4D grid(world, sim::GridShape{2, 1, 1, 1});
    FCOptions fp32;
    FCOptions bf16;
    bf16.mixed_precision = true;
    TensorParallelFC exact(grid, kIn, kOut, kSeed, fp32);
    TensorParallelFC rounded(grid, kIn, kOut, kSeed, bf16);
    const Matrix a = exact.forward(exact.scatter_input(full_input));
    const Matrix b = rounded.forward(rounded.scatter_input(full_input));
    const float diff = Matrix::max_abs_diff(a, b);
    EXPECT_GT(diff, 0.0f);     // bf16 is lossy...
    EXPECT_LT(diff, 5e-2f);    // ...but bounded
  });
}

TEST(FCLayerTest, WireBytesMatchPerfModelEquations) {
  // The bytes ThreadComm actually moves for the Z all-gather and Z
  // reduce-scatter must equal Eqs. 1-2 of the performance model.
  const sim::GridShape shape{2, 1, 2, 1};
  comm::run_ranks(4, [&](comm::Communicator& world) {
    Grid4D grid(world, shape);
    TensorParallelFC fc(grid, kIn, kOut, kSeed);
    grid.reset_stats();
    fc.forward(fc.scatter_input(reference_input()));
    const auto z_after_fwd = grid.z_comm().stats().wire_bytes_sent;

    // The model counts bf16 (2-byte) elements; ThreadComm moves fp32
    // (4-byte) floats — same element counts, 2x the bytes.
    constexpr double kElemRatio = 4.0 / 2.0;
    perf::DimensionBandwidths beta{1, 1, 1, 1};
    const auto pred = perf::predict_layer(kRows, kIn, kOut, false, shape, beta);
    EXPECT_EQ(static_cast<double>(z_after_fwd), pred.bytes_ag_z * kElemRatio);

    fc.backward(Matrix::zeros(fc.input_row_range(kRows).size(), fc.out_local()));
    fc.finish_gradients();
    const auto z_total = grid.z_comm().stats().wire_bytes_sent;
    EXPECT_EQ(static_cast<double>(z_total - z_after_fwd),
              pred.bytes_rs_z * kElemRatio);

    // Eq. 4: the backward all-reduce over the column (X) group.
    const auto x_bytes = grid.x_comm().stats().wire_bytes_sent;
    EXPECT_EQ(static_cast<double>(x_bytes), pred.bytes_ar_bwd * kElemRatio);
  });
}

TEST(FCLayerTest, TiledBackendMatchesReferenceAndRepacksAfterStep) {
  // The tiled layer packs op(B) inside every GEMM, so after an optimizer
  // step the next iteration must see the updated weights through the
  // invalidated gathered-weight cache — a stale operand would make the loop
  // below diverge from the reference layer immediately.
  comm::run_ranks(1, [&](comm::Communicator& world) {
    Grid4D grid(world, sim::GridShape{1, 1, 1, 1});
    FCOptions tiled_options;
    tiled_options.gemm_backend = GemmBackend::kTiled;
    TensorParallelFC tiled(grid, kIn, kOut, kSeed, tiled_options);
    TensorParallelFC plain(grid, kIn, kOut, kSeed);
    const Matrix input = reference_input();
    const Matrix dout = reference_grad_output();
    for (int step = 0; step < 3; ++step) {
      const Matrix out_t = tiled.forward(input);
      const Matrix out_p = plain.forward(input);
      EXPECT_LE(Matrix::max_abs_diff(out_t, out_p), 1e-4f) << "step " << step;
      const Matrix din_t = tiled.backward(dout);
      const Matrix din_p = plain.backward(dout);
      tiled.finish_gradients();
      plain.finish_gradients();
      EXPECT_LE(Matrix::max_abs_diff(din_t, din_p), 1e-4f) << "step " << step;
      EXPECT_LE(Matrix::max_abs_diff(tiled.weight_grad_shard(),
                                     plain.weight_grad_shard()),
                1e-4f)
          << "step " << step;
      tiled.apply_sgd(0.05f);
      plain.apply_sgd(0.05f);
      tiled.zero_grad();
      plain.zero_grad();
    }
  });
}

TEST(FCLayerTest, BackwardIssuesNoWeightGather) {
  // Audit of the paper's backward-pass OAG: this runtime retains the
  // gathered weight block across forward+backward (see the backward() doc
  // comment), so the backward pass must not re-issue the Z all-gather — and
  // neither must a second forward while the weights are unchanged.
  comm::run_ranks(2, [&](comm::Communicator& world) {
    Grid4D grid(world, sim::GridShape{1, 1, 2, 1});
    TensorParallelFC fc(grid, kIn, kOut, kSeed);
    const Matrix input_local = fc.scatter_input(reference_input());
    const Matrix dout_local = reference_grad_output().block(
        fc.input_row_range(kRows), fc.output_col_range());

    fc.forward(input_local);
    const auto after_fwd = grid.z_comm().stats().all_gather_calls;
    EXPECT_GT(after_fwd, 0u);

    fc.backward(dout_local);
    fc.finish_gradients();
    EXPECT_EQ(grid.z_comm().stats().all_gather_calls, after_fwd)
        << "backward must reuse the cached weight block";

    fc.forward(input_local);
    EXPECT_EQ(grid.z_comm().stats().all_gather_calls, after_fwd)
        << "unchanged weights must not be re-gathered";

    // A weight update invalidates the cache; the next forward re-gathers.
    fc.apply_sgd(0.1f);
    fc.forward(input_local);
    EXPECT_GT(grid.z_comm().stats().all_gather_calls, after_fwd);
  });
}

TEST(FCLayerTest, PredictedWireBytesMatchInstrumentedOnFullGrid) {
  // Eqs. 1-5 vs the instrumented runtime for one fwd+bwd on the full 3D
  // grid, both weight decompositions, via the CommModelChecker machinery.
  for (const bool transposed : {false, true}) {
    comm::run_ranks(8, [&](comm::Communicator& world) {
      Grid4D grid(world, sim::GridShape{2, 2, 2, 1});
      FCOptions options;
      options.transposed = transposed;
      TensorParallelFC fc(grid, kIn, kOut, kSeed, options);
      CommModelChecker checker(grid, /*tolerance=*/1e-6);

      checker.begin();
      fc.forward(fc.scatter_input(reference_input()));
      fc.backward(reference_grad_output().block(fc.input_row_range(kRows),
                                                fc.output_col_range()));
      fc.finish_gradients();
      checker.expect(predicted_layer_wire_bytes(
          fc, kRows, /*include_data_grad_sync=*/false));
      const auto result = checker.finish();

      EXPECT_TRUE(result.ok) << "worst rel error " << result.worst_rel_error
                             << " (transposed=" << transposed << ")";
      EXPECT_LT(result.worst_rel_error, 1e-9);
      EXPECT_GT(result.measured.total(), 0.0);
      EXPECT_GT(result.predicted.z, 0.0);
      // The forward all-reduce runs over the row group: Y normally, X when
      // transposed.
      EXPECT_GT(transposed ? result.measured.x : result.measured.y, 0.0);
    });
  }
}

TEST(FCLayerTest, BackwardWithoutForwardThrows) {
  comm::run_ranks(2, [](comm::Communicator& world) {
    Grid4D grid(world, sim::GridShape{2, 1, 1, 1});
    TensorParallelFC fc(grid, kIn, kOut, kSeed);
    EXPECT_THROW(fc.backward(Matrix(kRows, fc.out_local())), Error);
  });
}

TEST(FCLayerTest, NonDivisibleDimensionsStillExact) {
  // 17 x 13 weights on a 2x2x2 grid: chunk_range gives uneven tiles and the
  // v-collectives must still reconstruct everything exactly.
  const std::size_t in = 17, out = 13, rows = 9;
  Rng rng_i(3), rng_d(4);
  const Matrix full_input = Matrix::randn(rows, in, rng_i);
  const Matrix full_dout = Matrix::randn(rows, out, rng_d);
  const Matrix w = reference_weight(in, out, 0.02f);
  const Matrix o_ref = gemm(GemmMode::kNN, full_input, w);

  comm::run_ranks(8, [&](comm::Communicator& world) {
    Grid4D grid(world, sim::GridShape{2, 2, 2, 1});
    TensorParallelFC fc(grid, in, out, kSeed);
    const Matrix out_local = fc.forward(fc.scatter_input(full_input));
    const Matrix expected =
        o_ref.block(fc.input_row_range(rows), fc.output_col_range());
    EXPECT_LT(Matrix::max_abs_diff(out_local, expected), 2e-4f);
  });
}

}  // namespace
}  // namespace axonn::core
