// §V-C: automated BLAS kernel tuning, on simulated MI250X (Frontier) — the
// GPT-320B anecdote: the TN weight-gradient matmuls hit the pathological
// rocBLAS kernel at 6% of peak; tuning switches them to an ~8x faster mode
// and cuts per-batch compute from ~30s to ~13s in the paper. The anomaly is
// a property of rocBLAS, so it lives in the simulator's efficiency tables:
// on the CPU runtime the tiled backend packs operands, which resolves the
// transpose before the kernel runs, and every mode costs the same.

#include <iostream>

#include "common.hpp"

int main() {
  using namespace axonn;
  using namespace axonn::bench;

  std::cout << "== Kernel tuning (S V-C) ==\n\n";
  std::cout << "-- GPT-320B on 32,768 GCDs of Frontier (simulated) --\n";
  const auto machine = sim::frontier();
  const auto db = sim::IntraNodeBandwidthDB::profile(machine);
  const auto job = paper_job("GPT-320B");
  const auto best = perf::best_configuration(job, machine, db, 32768);

  sim::SimOptions untuned;
  untuned.overlap = sim::OverlapFlags::all();
  sim::SimOptions tuned = untuned;
  tuned.kernel_tuning = true;
  const auto before = sim::simulate_iteration(job, machine, db, best.grid,
                                              untuned);
  const auto after = sim::simulate_iteration(job, machine, db, best.grid,
                                             tuned);
  Table table({"Variant", "Compute time (s)", "Batch time (s)"});
  table.add_row({"Default modes (TN for dW)", Table::cell(before.compute_s, 2),
                 Table::cell(before.total_s, 2)});
  table.add_row({"Tuned", Table::cell(after.compute_s, 2),
                 Table::cell(after.total_s, 2)});
  table.print(std::cout);
  std::cout << "Compute-time reduction: "
            << Table::cell(100.0 * (before.compute_s - after.compute_s) /
                               before.compute_s,
                           1)
            << "% (paper: 30.1 s -> 13.19 s, i.e. 56%)\n";
  return 0;
}
