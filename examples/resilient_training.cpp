// Resilient training: survive an injected rank crash via checkpoint/restart,
// then survive *silent* data corruption via the integrity layer.
//
// Four thread ranks train a tiny GPT on a Z x data grid while ChaosComm is
// armed to crash rank 2 mid-run. The supervisor catches the failure,
// re-spawns the world, restores the latest CRC-valid checkpoint, and the
// run finishes with a loss bit-identical to a fault-free run — printed side
// by side at the end.
//
// A third run arms the silent faults instead (DESIGN.md §9): per-segment
// wire bit flips plus a one-shot post-collective memory corruption. With
// the full defense on — ABFT GEMM checksums, CRC-framed self-healing rings,
// and the training sentinel's journal/replay — the run heals *in-run*: zero
// supervisor restarts, and still the bit-identical final loss. The
// integrity counters (detections, recoveries, retransmits, step replays)
// are printed as the audit trail.
//
//   $ ./resilient_training [checkpoint_dir]
//
// Set AXONN_TRACE=out.json to record the runs with the flight recorder —
// the Chrome trace shows training iterations, the injected crash, the
// collectives of the restarted world, and abft/retransmit/replay spans.
// Set AXONN_METRICS=steps.jsonl for live telemetry (DESIGN.md §10): one
// JSONL object per training step with per-rank wall/self times and
// min/mean/max/argmax per field, a StragglerMonitor watching for slow
// ranks, and a final Prometheus exposition in steps.jsonl.prom.
// AXONN_INTEGRITY=off|detect|heal overrides every integrity knob at once.

#include <cstdio>
#include <exception>
#include <filesystem>

#include "axonn/base/step_telemetry.hpp"
#include "axonn/base/trace.hpp"
#include "axonn/integrity/integrity.hpp"
#include "axonn/train/resilient.hpp"

int main(int argc, char** argv) try {
  using namespace axonn;
  namespace fs = std::filesystem;

  obs::TraceSession trace;      // honours AXONN_TRACE
  obs::MetricsSession metrics;  // honours AXONN_METRICS (DESIGN.md §10)

  const std::string base =
      argc > 1 ? argv[1] : (fs::temp_directory_path() / "axonn-resilient").string();

  train::ResilientTrainConfig config;
  config.grid = sim::GridShape{1, 1, 2, 2};
  config.model.layers = 2;
  config.model.hidden = 32;
  config.model.heads = 2;
  config.total_steps = 10;
  config.batch_per_rank = 2;
  config.checkpoint_every = 3;
  config.collective_timeout = std::chrono::milliseconds(10000);

  // Reference run: no faults.
  config.checkpoint_dir = base + "/fault-free";
  fs::remove_all(config.checkpoint_dir);
  const auto reference = train::run_resilient_training(config);
  std::printf("fault-free run : final loss %.9g (%d restarts, %llu steps)\n",
              static_cast<double>(reference.final_loss), reference.restarts,
              static_cast<unsigned long long>(reference.steps_executed));

  // Chaos run: rank 2 crashes at its 120th collective, mid-training.
  config.checkpoint_dir = base + "/chaos";
  fs::remove_all(config.checkpoint_dir);
  config.chaos.crash_rank = 2;
  config.chaos.crash_at_collective = 120;
  const auto recovered = train::run_resilient_training(config);
  std::printf("recovered run  : final loss %.9g (%d restarts, %llu steps, "
              "%llu checkpoint files)\n",
              static_cast<double>(recovered.final_loss), recovered.restarts,
              static_cast<unsigned long long>(recovered.steps_executed),
              static_cast<unsigned long long>(recovered.checkpoints_written));

  const bool identical = reference.final_loss == recovered.final_loss;
  std::printf("bit-identical  : %s\n", identical ? "yes" : "NO");

  // Silent-corruption run: wire bit flips + a one-shot post-delivery memory
  // corruption, healed in-run by the integrity layer (no restart).
  config.checkpoint_dir = base + "/sdc";
  fs::remove_all(config.checkpoint_dir);
  config.chaos = comm::ChaosConfig{};
  config.chaos.seed = 29;
  config.chaos.wire.corrupt_probability = 0.002;
  config.chaos.corrupt_once_rank = 0;
  config.chaos.corrupt_once_collective = 40;
  config.model.abft.mode = integrity::IntegrityMode::kHeal;
  config.ring_crc = integrity::IntegrityMode::kHeal;
  config.sentinel.mode = integrity::IntegrityMode::kHeal;

  const auto counters_before = integrity::counters().snapshot();
  const auto healed = train::run_resilient_training(config);
  const auto c = integrity::counters().snapshot();
  std::printf("healed run     : final loss %.9g (%d restarts, %llu step "
              "replays)\n",
              static_cast<double>(healed.final_loss), healed.restarts,
              static_cast<unsigned long long>(healed.step_replays));
  std::printf("integrity      : %llu detected / %llu recovered (%llu wire "
              "faults, %llu ring retransmits, %llu abft recomputes)\n",
              static_cast<unsigned long long>(c.sdc_detected -
                                              counters_before.sdc_detected),
              static_cast<unsigned long long>(c.sdc_recovered -
                                              counters_before.sdc_recovered),
              static_cast<unsigned long long>(
                  c.wire_faults_injected - counters_before.wire_faults_injected),
              static_cast<unsigned long long>(c.ring_retransmits -
                                              counters_before.ring_retransmits),
              static_cast<unsigned long long>(c.abft_recomputes -
                                              counters_before.abft_recomputes));
  const bool healed_identical =
      reference.final_loss == healed.final_loss && healed.restarts == 0;
  std::printf("healed in-run  : %s\n", healed_identical ? "yes" : "NO");
  return identical && healed_identical ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "resilient_training: %s\n", e.what());
  return 2;
}
