// §VI-C: the square-GEMM peak survey, in two parts.
//
// Part 1 (simulated): the paper multiplies two bf16 square matrices from
// 1024^2 to 65536^2 on one GPU/GCD of each machine and reports the highest
// sustained fraction of the advertised peak: 280/312 = 90% (A100),
// 125/191.5 = 65% (MI250X GCD), 813/989 = 82% (H100).
//
// Part 2 (this host): the same survey run for real against the CPU GEMM
// backends — reference loops vs the tiled packed-panel kernel — across all
// transpose modes. The shape check is the same as the paper's: efficiency
// rises with size as packing costs amortize. Packing also resolves the
// transpose before the kernel runs, so there is no per-mode choice to tune
// here; the rocBLAS per-mode spread that §V-C tunes around is modelled in
// the simulator.
//
// `--json <path>` emits every host series (GFLOP/s vs dimension, labelled
// backend/mode) plus the simulated sustained fractions as
// BENCH_gemm_survey.json.

#include <chrono>
#include <iostream>

#include "axonn/base/rng.hpp"
#include "axonn/tensor/gemm.hpp"
#include "axonn/tensor/gemm_tiled.hpp"
#include "common.hpp"
#include "json_out.hpp"

namespace {

using namespace axonn;

// Runs one backend's kernel: plain gemm() or gemm_tiled().
void run_gemm(GemmBackend backend, GemmMode mode, const Matrix& a,
              const Matrix& b, Matrix& c) {
  if (backend == GemmBackend::kTiled) {
    gemm_tiled(mode, 1.0f, a, b, 0.0f, c, /*round_bf16=*/false);
  } else {
    gemm(mode, 1.0f, a, b, 0.0f, c);
  }
}

// Median-free minimal timer: run until 100 ms or 5 iterations, keep the
// fastest (the sustained rate, unperturbed by cold caches).
double best_seconds(GemmBackend backend, GemmMode mode, std::size_t d) {
  Rng rng(11);
  const Matrix a = Matrix::randn(d, d, rng);
  const Matrix b = Matrix::randn(d, d, rng);
  Matrix c(d, d);
  double best = 1e300;
  double spent = 0;
  for (int iter = 0; iter < 5 && (iter < 2 || spent < 0.1); ++iter) {
    const auto t0 = std::chrono::steady_clock::now();
    run_gemm(backend, mode, a, b, c);
    const auto t1 = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(t1 - t0).count();
    best = std::min(best, s);
    spent += s;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace axonn;
  using namespace axonn::bench;

  const std::string json_path = extract_json_path(argc, argv);
  JsonSeriesWriter json("gemm_survey");

  std::cout << "== GEMM peak survey (S VI-C): square bf16 GEMMs, one device "
               "==\n\n";
  for (const auto& machine : sim::all_machines()) {
    std::cout << "-- " << machine.name << " (advertised "
              << units::format_flops(machine.advertised_peak_flops) << ") --\n";
    Table table({"Dim", "Sustained", "% of advertised peak"});
    double best_pct = 0;
    for (std::uint64_t dim = 1024; dim <= 65536; dim *= 2) {
      const double seconds =
          machine.gemm_seconds(GemmMode::kNN, dim, dim, dim);
      const double flops = 2.0 * static_cast<double>(dim) * dim * dim;
      const double sustained = flops / seconds;
      const double pct = 100.0 * sustained / machine.advertised_peak_flops;
      best_pct = std::max(best_pct, pct);
      table.add_row({Table::cell(static_cast<long long>(dim)),
                     units::format_flops(sustained), Table::cell(pct, 1)});
      json.add("sim/" + machine.name, static_cast<double>(dim), pct,
               "% of peak");
    }
    table.print(std::cout);
    std::cout << "Best sustained fraction: " << Table::cell(best_pct, 1)
              << "% (paper: "
              << (machine.name == "Perlmutter"
                      ? "90"
                      : machine.name == "Frontier" ? "65" : "82")
              << "%)\n\n";
  }

  std::cout << "== Host survey: real kernels, backend x mode x dim ==\n\n";
  const GemmMode modes[] = {GemmMode::kNN, GemmMode::kNT, GemmMode::kTN,
                            GemmMode::kTT};
  for (GemmBackend backend : {GemmBackend::kReference, GemmBackend::kTiled}) {
    Table table({"Dim", "NN GFLOP/s", "NT GFLOP/s", "TN GFLOP/s",
                 "TT GFLOP/s"});
    for (std::size_t dim : {64u, 128u, 256u, 512u}) {
      std::vector<std::string> row{Table::cell(static_cast<long long>(dim))};
      for (GemmMode mode : modes) {
        const double seconds = best_seconds(backend, mode, dim);
        const double gflops = 2.0 * static_cast<double>(dim) * dim * dim /
                              seconds * 1e-9;
        row.push_back(Table::cell(gflops, 2));
        json.add(std::string("host/") + to_string(backend) + "/" +
                     to_string(mode),
                 static_cast<double>(dim), gflops, "GFLOP/s");
      }
      table.add_row(row);
    }
    std::cout << "-- backend: " << to_string(backend) << " --\n";
    table.print(std::cout);
    std::cout << "\n";
  }

  std::cout << "Shape check: simulated efficiency rises with matrix size and\n"
               "saturates near the empirical peak without reaching the\n"
               "advertised one (Frontier saturates lowest). On this host the\n"
               "tiled backend widens its lead as packing amortizes.\n";

  if (!json_path.empty()) json.write_file(json_path);
  return 0;
}
