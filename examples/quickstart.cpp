// Quickstart: train a tiny GPT with the full 4D hybrid parallel engine.
//
// Eight thread ranks form a 2x2x2 tensor grid; the model's FC layers run
// Algorithm 1 (weight all-gathers over Z, output all-reduces over X/Y,
// gradient reduce-scatters over Z) with every overlap optimization on, and
// the loss goes down. This is the end-to-end proof that the parallel
// algorithm trains correctly.
//
//   $ ./quickstart
//   step  0: loss 962.4898
//   step  5: loss 938.0554
//   ...
//   step 25: loss 269.3302
//
//   collectives issued: 120 all-reduces, 60 all-gathers, 60 reduce-scatters
//   (0.2 MB on the wire per rank)
//
// (default RelWithDebInfo build; other optimization flags can move the last
// printed digit.)
//
// Set AXONN_TRACE=out.json to record every step with the flight recorder
// (axonn::obs): the written Chrome trace (chrome://tracing / Perfetto)
// shows the nonblocking collectives on each rank's comm stream overlapping
// the GEMM spans, and a Fig. 5-style per-iteration breakdown is printed.
// Set AXONN_VALIDATE_COMM=1 to cross-check the wire bytes every iteration
// against Eqs. 1-5 of the paper's performance model.
// Set AXONN_METRICS=out.jsonl to enable the live metrics registry
// (DESIGN.md §10): blocking-collective stall time, wire/CRC byte counters
// and payload histograms are written to out.jsonl.prom on exit.

#include <cstdio>
#include <cstdlib>

#include "axonn/base/step_telemetry.hpp"
#include "axonn/base/trace.hpp"
#include "axonn/comm/thread_comm.hpp"
#include "axonn/core/mlp.hpp"
#include "axonn/tensor/ops.hpp"

int main() {
  using namespace axonn;

  obs::TraceSession trace;      // honours AXONN_TRACE
  obs::MetricsSession metrics;  // honours AXONN_METRICS (DESIGN.md §10)
  const bool validate_comm = std::getenv("AXONN_VALIDATE_COMM") != nullptr;

  // A toy regression task shared by every rank.
  constexpr std::size_t kRows = 16;
  const std::vector<std::size_t> dims{32, 64, 32};
  Rng rng(123);
  const Matrix inputs = Matrix::randn(kRows, dims.front(), rng);
  const Matrix targets = Matrix::randn(kRows, dims.back(), rng);

  comm::run_ranks(8, [&](comm::Communicator& world) {
    core::Grid4D grid(world, sim::GridShape{2, 2, 2, 1});

    core::MLPOptions options;
    options.overlap_weight_all_gather = true;        // OAG
    options.overlap_input_grad_all_reduce = true;    // OAR
    options.overlap_weight_grad_reduce_scatter = true;  // ORS
    options.gemm_backend = GemmBackend::kTiled;      // packed-panel GEMMs
    options.validate_comm_model = validate_comm;     // Eqs. 1-5 vs wire bytes
    core::TensorParallelMLP mlp(grid, dims, /*seed=*/42, options);

    for (int step = 0; step < 30; ++step) {
      obs::IterationScope iteration;  // one Fig. 5 window per step
      mlp.zero_grad();
      const Matrix out = mlp.forward(mlp.scatter_input(inputs));

      // Local block of the target, shaped like this rank's output.
      const auto& last = mlp.layer(mlp.num_layers() - 1);
      const Matrix target_local = targets.block(
          last.input_row_range(kRows), last.output_col_range());

      Matrix grad = out;
      grad.axpy_inplace(-1.0f, target_local);  // d/dout of 0.5||out - t||^2

      float local_sq = 0.0f;
      for (std::size_t i = 0; i < grad.size(); ++i) {
        local_sq += grad.data()[i] * grad.data()[i];
      }
      std::vector<float> loss{local_sq};
      world.all_reduce(loss, comm::ReduceOp::kSum);

      mlp.backward(grad);
      mlp.sync_gradients_data_parallel();
      mlp.apply_sgd(0.005f);

      if (world.rank() == 0 && step % 5 == 0) {
        std::printf("step %2d: loss %.4f\n", step, loss[0]);
      }
    }

    if (world.rank() == 0) {
      const auto stats = grid.total_stats();
      std::printf("\ncollectives issued: %llu all-reduces, %llu all-gathers, "
                  "%llu reduce-scatters (%.1f MB on the wire per rank)\n",
                  static_cast<unsigned long long>(stats.all_reduce_calls),
                  static_cast<unsigned long long>(stats.all_gather_calls),
                  static_cast<unsigned long long>(stats.reduce_scatter_calls),
                  static_cast<double>(stats.wire_bytes_sent) / 1e6);
      if (validate_comm && mlp.comm_checker()) {
        const auto& check = mlp.comm_checker()->last_result();
        std::printf("comm model check (last step): predicted %.0f B, "
                    "measured %.0f B, worst rel error %.2e -> %s\n",
                    check.predicted.total(), check.measured.total(),
                    check.worst_rel_error, check.ok ? "OK" : "DIVERGED");
      }
    }
  });

  if (trace.active()) {
    // Fig. 5's methodology on the recorded spans: per-iteration compute vs
    // exposed (non-overlapped) communication on rank 0.
    const auto reports =
        obs::iteration_reports(obs::merged_events(), /*rank=*/0);
    const auto mean = obs::mean_report(reports);
    std::printf("\nflight recorder: %zu iterations on rank 0 — mean "
                "%.2f ms/iter (%.2f ms compute, %.2f ms exposed comm, "
                "%.2f ms hidden comm, overlap efficiency %.2f)\n",
                reports.size(), mean.wall_s * 1e3, mean.compute_s * 1e3,
                mean.exposed_comm_s * 1e3, mean.hidden_comm_s * 1e3,
                mean.overlap_efficiency);
  }
  return 0;
}
