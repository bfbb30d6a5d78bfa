// SDC-defense overhead: what the integrity layer (DESIGN.md §9) costs on a
// clean run, and what a healed run costs under sustained wire faults.
//
// Trains the quickstart-sized tiny GPTs end to end (real collectives, real
// GEMMs) in four configurations — baseline, ABFT-checksummed GEMMs, CRC-
// framed self-healing rings, and everything on (ABFT + ring CRC + training
// sentinel) — then re-runs the full configuration with ChaosComm injecting
// per-segment wire faults at a fixed rate, so the retransmit cost of healing
// is measured rather than modeled.
//
//   $ ./bench_sdc_overhead [--json BENCH_sdc_overhead.json]
//
// Acceptance line (the PR's criterion): full integrity on a clean run costs
// <= 15% over baseline at these sizes.

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "axonn/base/table.hpp"
#include "axonn/train/resilient.hpp"
#include "json_out.hpp"

namespace {

using namespace axonn;

constexpr int kSteps = 8;
constexpr double kAcceptOverheadPct = 15.0;

struct ModelSize {
  const char* name;
  std::size_t layers;
  std::size_t hidden;
  std::size_t heads;
};

train::ResilientTrainConfig base_config(const ModelSize& size,
                                        const std::string& dir) {
  train::ResilientTrainConfig config;
  config.model.vocab = 64;
  config.model.max_seq = 32;
  config.model.layers = size.layers;
  config.model.hidden = size.hidden;
  config.model.heads = size.heads;
  config.corpus.vocab = 64;
  config.corpus.doc_tokens = 32;
  config.grid = sim::GridShape{1, 1, 1, 2};
  config.total_steps = kSteps;
  config.batch_per_rank = 2;
  config.checkpoint_every = 0;  // checkpoint I/O would drown the signal
  config.checkpoint_dir = dir;
  config.collective_timeout = std::chrono::milliseconds(30000);
  return config;
}

/// Seconds per training step for one configuration (best of `reps` runs —
// wall-clock minimum is the standard noise filter for short benches).
double seconds_per_step(const train::ResilientTrainConfig& config, int reps) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    (void)train::run_resilient_training(config);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    const double per_step = elapsed.count() / kSteps;
    if (r == 0 || per_step < best) best = per_step;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::extract_json_path(argc, argv);
  bench::JsonSeriesWriter json("sdc_overhead");

  const std::string dir =
      (std::filesystem::temp_directory_path() / "axonn-bench-sdc").string();
  std::filesystem::remove_all(dir);

  const std::vector<ModelSize> sizes = {{"gpt-2L-32h", 2, 32, 2},
                                        {"gpt-2L-64h", 2, 64, 4}};

  Table table({"model", "baseline ms/step", "abft ms/step", "ring-crc ms/step",
               "full ms/step", "full overhead %", "healed ms/step"});
  bool accepted = true;

  for (const ModelSize& size : sizes) {
    const auto config = base_config(size, dir);

    auto abft = config;
    abft.model.abft.mode = integrity::IntegrityMode::kHeal;

    auto ring = config;
    ring.ring_crc = integrity::IntegrityMode::kHeal;

    auto full = config;
    full.model.abft.mode = integrity::IntegrityMode::kHeal;
    full.ring_crc = integrity::IntegrityMode::kHeal;
    full.sentinel.mode = integrity::IntegrityMode::kHeal;

    // Healed run: the full defense under a sustained per-segment wire fault
    // rate — every detection costs one NACK + retransmit on that edge.
    auto healed = full;
    healed.enable_chaos = true;
    healed.chaos.seed = 99;
    healed.chaos.wire.corrupt_probability = 0.02;
    healed.crc_max_retries = 16;

    // One throwaway run warms allocators.
    (void)seconds_per_step(config, 1);
    const double t_base = seconds_per_step(config, 3);
    const double t_abft = seconds_per_step(abft, 3);
    const double t_ring = seconds_per_step(ring, 3);
    const double t_full = seconds_per_step(full, 3);
    const double t_heal = seconds_per_step(healed, 3);

    const double overhead_pct = 100.0 * (t_full - t_base) / t_base;
    accepted = accepted && overhead_pct <= kAcceptOverheadPct;

    table.add_row({size.name, Table::cell(t_base * 1e3, 3),
                   Table::cell(t_abft * 1e3, 3), Table::cell(t_ring * 1e3, 3),
                   Table::cell(t_full * 1e3, 3), Table::cell(overhead_pct, 1),
                   Table::cell(t_heal * 1e3, 3)});

    const double x = static_cast<double>(size.hidden);
    json.add("baseline", x, t_base);
    json.add("abft", x, t_abft);
    json.add("ring_crc", x, t_ring);
    json.add("full", x, t_full);
    json.add("full_overhead_pct", x, overhead_pct, "%");
    json.add("healed_faulty_wire", x, t_heal);
  }

  std::printf("SDC-defense overhead (tiny GPT, 2 data-parallel ranks, %d "
              "steps, best of 3)\n\n",
              kSteps);
  table.print(std::cout);
  std::printf("\nacceptance: clean-run overhead of full integrity <= %.0f%% "
              "-> %s\n",
              kAcceptOverheadPct, accepted ? "PASS" : "FAIL");

  const auto healed_counters = integrity::counters().snapshot();
  std::printf("healed-run integrity counters (process totals): %llu wire "
              "faults injected, %llu detected, %llu recovered, %llu "
              "retransmits\n",
              static_cast<unsigned long long>(
                  healed_counters.wire_faults_injected),
              static_cast<unsigned long long>(healed_counters.sdc_detected),
              static_cast<unsigned long long>(healed_counters.sdc_recovered),
              static_cast<unsigned long long>(
                  healed_counters.ring_retransmits));

  if (!json_path.empty()) json.write_file(json_path);
  std::filesystem::remove_all(dir);
  return accepted ? 0 : 1;
}
