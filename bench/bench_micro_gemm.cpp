// Micro-benchmarks of the real GEMM kernels over (backend x transpose mode).
// The tiled backend packs op(A)/op(B) into contiguous panels and runs a
// register-blocked micro-kernel, so its advantage over the reference loops
// grows with size; every tiled series includes its per-call op(B) pack, as
// the FC layers run it. `--json <path>` writes every
// series (seconds/iteration, x = square dimension) as BENCH_micro_gemm.json,
// and the run ends with the acceptance check: tiled vs reference at
// 512x512x512 fp32 NN.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "axonn/base/rng.hpp"
#include "axonn/tensor/gemm.hpp"
#include "axonn/tensor/gemm_dispatch.hpp"
#include "axonn/tensor/gemm_tiled.hpp"
#include "json_out.hpp"

namespace {

using namespace axonn;

// Operands shaped so op(A) and op(B) are both d x d under `mode`.
Matrix square_operand(std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  return Matrix::randn(d, d, rng);
}

void report_gflops(benchmark::State& state, std::size_t d) {
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 2.0 * static_cast<double>(d) *
          static_cast<double>(d) * static_cast<double>(d) * 1e-9,
      benchmark::Counter::kIsRate);
}

// The two kernels behind one signature, so each series names its kernel.
void reference(GemmMode mode, const Matrix& a, const Matrix& b, Matrix& c,
               bool bf16) {
  if (bf16) {
    gemm_bf16(mode, 1.0f, a, b, 0.0f, c);
  } else {
    gemm(mode, 1.0f, a, b, 0.0f, c);
  }
}
void tiled(GemmMode mode, const Matrix& a, const Matrix& b, Matrix& c,
           bool bf16) {
  gemm_tiled(mode, 1.0f, a, b, 0.0f, c, bf16);
}
using Kernel = void (*)(GemmMode, const Matrix&, const Matrix&, Matrix&, bool);

void BM_Gemm(benchmark::State& state, Kernel kernel, GemmMode mode) {
  const auto d = static_cast<std::size_t>(state.range(0));
  const Matrix a = square_operand(d, 1);
  const Matrix b = square_operand(d, 2);
  Matrix c(d, d);
  for (auto _ : state) {
    kernel(mode, a, b, c, /*bf16=*/false);
    benchmark::DoNotOptimize(c.data());
  }
  report_gflops(state, d);
}

void BM_GemmBf16(benchmark::State& state, Kernel kernel, GemmMode mode) {
  const auto d = static_cast<std::size_t>(state.range(0));
  const Matrix a = square_operand(d, 3);
  const Matrix b = square_operand(d, 4);
  Matrix c(d, d);
  for (auto _ : state) {
    kernel(mode, a, b, c, /*bf16=*/true);
    benchmark::DoNotOptimize(c.data());
  }
  report_gflops(state, d);
}

// Intra-rank threading (DESIGN.md §13): the tiled NN product at a fixed
// worker-lane budget. Identical math and bitwise-identical output at every
// lane count, so the series differ only in wall time.
void BM_GemmTiledThreads(benchmark::State& state, int threads) {
  const auto d = static_cast<std::size_t>(state.range(0));
  const Matrix a = square_operand(d, 5);
  const Matrix b = square_operand(d, 6);
  Matrix c(d, d);
  GemmThreadScope scope(threads);
  for (auto _ : state) {
    gemm_tiled(GemmMode::kNN, 1.0f, a, b, 0.0f, c, false);
    benchmark::DoNotOptimize(c.data());
  }
  report_gflops(state, d);
}

#define AXONN_GEMM_BENCH(kernel, name, mode)                                \
  BENCHMARK_CAPTURE(BM_Gemm, name##_##mode, &kernel, GemmMode::k##mode)     \
      ->Name("gemm/" #name "/" #mode)                                       \
      ->Arg(128)                                                            \
      ->Arg(256)                                                            \
      ->Arg(512)                                                            \
      ->Unit(benchmark::kMillisecond)

AXONN_GEMM_BENCH(reference, Reference, NN);
AXONN_GEMM_BENCH(reference, Reference, NT);
AXONN_GEMM_BENCH(reference, Reference, TN);
AXONN_GEMM_BENCH(tiled, Tiled, NN);
AXONN_GEMM_BENCH(tiled, Tiled, NT);
AXONN_GEMM_BENCH(tiled, Tiled, TN);

#undef AXONN_GEMM_BENCH

// The bf16 grid runs the full size ladder including the 512 headline size —
// anything the fp32 acceptance gates, the bf16 series must cover too.
BENCHMARK_CAPTURE(BM_GemmBf16, Reference_NN, &reference, GemmMode::kNN)
    ->Name("gemm_bf16/Reference/NN")
    ->Arg(128)
    ->Arg(256)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_GemmBf16, Tiled_NN, &tiled, GemmMode::kNN)
    ->Name("gemm_bf16/Tiled/NN")
    ->Arg(128)
    ->Arg(256)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond);

#define AXONN_GEMM_THREADS_BENCH(t)                             \
  BENCHMARK_CAPTURE(BM_GemmTiledThreads, T##t, t)               \
      ->Name("gemm/TiledT" #t "/NN")                            \
      ->Arg(256)                                                \
      ->Arg(512)                                                \
      ->Unit(benchmark::kMillisecond)

AXONN_GEMM_THREADS_BENCH(1);
AXONN_GEMM_THREADS_BENCH(2);
AXONN_GEMM_THREADS_BENCH(4);

#undef AXONN_GEMM_THREADS_BENCH

/// Console reporter that additionally captures every run into the JSON
/// series writer. Run names are "series/name/<dim>": the trailing numeric
/// component becomes the point's x, the rest the series name — so each
/// series label carries backend + mode ("gemm/Tiled/NN").
class SeriesReporter : public benchmark::ConsoleReporter {
 public:
  explicit SeriesReporter(axonn::bench::JsonSeriesWriter& json)
      : json_(json) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.iterations == 0) continue;
      const std::string name = run.benchmark_name();
      std::string series = name;
      double x = static_cast<double>(index_);
      const std::size_t slash = name.rfind('/');
      if (slash != std::string::npos &&
          name.find_first_not_of("0123456789", slash + 1) ==
              std::string::npos) {
        series = name.substr(0, slash);
        x = std::stod(name.substr(slash + 1));
      }
      const double secs = run.real_accumulated_time /
                          static_cast<double>(run.iterations);
      json_.add(series, x, secs);
      seconds_by_run_[name] = secs;
      ++index_;
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  double seconds(const std::string& run_name) const {
    auto it = seconds_by_run_.find(run_name);
    return it == seconds_by_run_.end() ? 0.0 : it->second;
  }

 private:
  axonn::bench::JsonSeriesWriter& json_;
  std::map<std::string, double> seconds_by_run_;
  int index_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = axonn::bench::extract_json_path(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  axonn::bench::JsonSeriesWriter json("micro_gemm");
  // Build/host flavor stamp: bench_compare.py refuses to diff across
  // differing non-underscore keys (a portable-tier run vs a native one is a
  // different machine, not a regression).
  json.set_flavor("isa", axonn::to_string(axonn::active_gemm_isa()));
#if defined(AXONN_BENCH_NATIVE_ARCH)
  json.set_flavor("native_arch", "on");
#else
  json.set_flavor("native_arch", "off");
#endif
  json.set_flavor("_hw_threads",
                  std::to_string(std::thread::hardware_concurrency()));
  json.set_flavor("_native_bf16", axonn::gemm_native_bf16() ? "yes" : "no");
  SeriesReporter reporter(json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  // Acceptance gate for the tiled backend: >= 4x over the reference kernel
  // on the 512^3 fp32 NN product (the shape class the FC layers live in).
  const double ref = reporter.seconds("gemm/Reference/NN/512");
  const double tiled = reporter.seconds("gemm/Tiled/NN/512");
  if (ref > 0 && tiled > 0) {
    const double speedup = ref / tiled;
    std::printf("\ntiled speedup at 512^3 fp32 NN: %.2fx (target >= 4x) %s\n",
                speedup, speedup >= 4.0 ? "PASS" : "FAIL");
  }

  // Threading acceptance: >= 4x at 512^3 fp32 from worker lanes alone
  // (same kernels, 4 lanes vs 1). Only meaningful with >= 4 real cores —
  // on smaller hosts the lanes time-slice and the run reports SKIP.
  const double t1 = reporter.seconds("gemm/TiledT1/NN/512");
  const double t4 = reporter.seconds("gemm/TiledT4/NN/512");
  const unsigned hw = std::thread::hardware_concurrency();
  if (t1 > 0 && t4 > 0) {
    const double speedup = t1 / t4;
    if (hw < 4) {
      std::printf(
          "threaded speedup at 512^3 fp32 NN: %.2fx (4 lanes vs 1) SKIP "
          "(needs >= 4 cores, host has %u)\n",
          speedup, hw);
    } else {
      std::printf(
          "threaded speedup at 512^3 fp32 NN: %.2fx (4 lanes vs 1, target "
          ">= 4x) %s\n",
          speedup, speedup >= 4.0 ? "PASS" : "FAIL");
    }
  }
  if (!json_path.empty()) json.write_file(json_path);
  return 0;
}
