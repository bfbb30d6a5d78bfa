#include "axonn/perf/gemm_calibration.hpp"

#include <chrono>

#include "axonn/base/error.hpp"
#include "axonn/tensor/gemm_dispatch.hpp"
#include "axonn/tensor/gemm_tiled.hpp"

namespace axonn::perf {

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Deterministic non-trivial fill (no RNG dependency): values in [-1, 1)
// with no structure a kernel could exploit.
Matrix calibration_operand(std::size_t rows, std::size_t cols,
                           std::uint32_t salt) {
  Matrix m(rows, cols);
  std::uint32_t state = 0x9e3779b9u + salt;
  for (std::size_t i = 0; i < rows; ++i) {
    float* row = m.row(i);
    for (std::size_t j = 0; j < cols; ++j) {
      state = state * 1664525u + 1013904223u;  // LCG, full period
      row[j] = static_cast<float>(state >> 8) * 0x1.0p-23f - 1.0f;
    }
  }
  return m;
}

}  // namespace

GemmCalibration calibrate_gemm_rate(std::size_t dim, int repeats, bool bf16) {
  AXONN_CHECK_MSG(dim >= kTileNR, "calibration dim too small to tile");
  if (repeats < 1) repeats = 1;
  const Matrix a = calibration_operand(dim, dim, 1);
  const Matrix b = calibration_operand(dim, dim, 2);
  Matrix c(dim, dim);

  GemmCalibration cal;
  cal.dim = dim;
  cal.backend = GemmBackend::kTiled;
  cal.isa = active_gemm_isa();
  cal.threads = gemm_threads();
  cal.bf16 = bf16;

  // Warmup: faults in operand pages and spawns the worker lanes, so the
  // timed repeats see steady state.
  gemm_tiled(GemmMode::kNN, 1.0f, a, b, 0.0f, c, bf16);

  const double flops = 2.0 * static_cast<double>(dim) *
                       static_cast<double>(dim) * static_cast<double>(dim);
  double best_seconds = 0;
  for (int r = 0; r < repeats; ++r) {
    const double t0 = now_seconds();
    // The path the FC layers run: op(B) is packed inside every call.
    gemm_tiled(GemmMode::kNN, 1.0f, a, b, 0.0f, c, bf16);
    const double elapsed = now_seconds() - t0;
    if (elapsed > 0 && (best_seconds == 0 || elapsed < best_seconds)) {
      best_seconds = elapsed;
    }
  }
  // A clock too coarse to see the GEMM would divide by zero; report a rate
  // of zero instead and let callers treat the calibration as unusable.
  cal.sustained_gflops = best_seconds > 0 ? flops / best_seconds / 1e9 : 0;
  return cal;
}

void apply_gemm_calibration(sim::MachineConfig& machine,
                            const GemmCalibration& cal) {
  AXONN_CHECK_MSG(cal.sustained_gflops > 0,
                  "cannot apply an empty GEMM calibration");
  AXONN_CHECK_MSG(machine.gemm.peak_fraction > 0,
                  "machine has a degenerate gemm.peak_fraction");
  const double measured = cal.sustained_gflops * 1e9;
  machine.empirical_peak_flops = measured;
  // The efficiency model's asymptote is advertised * peak_fraction; pin that
  // product to the measurement so large-GEMM predictions match reality while
  // the mode penalties and size roll-off keep their calibrated shape.
  machine.advertised_peak_flops = measured / machine.gemm.peak_fraction;
  machine.name += "+calibrated";
}

}  // namespace axonn::perf
