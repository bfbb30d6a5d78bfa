// Memory observability bench (DESIGN.md §14).
//
// Three questions, one binary:
//
//   1. Where do the bytes go? A steady-state tiny-GPT training window in
//      track mode, reported as the per-tag arena high-water marks
//      (mem/hwm/<tag>, bytes). These are deterministic — byte-exact across
//      runs on any host — so the bench_compare gate holds the memory
//      trajectory the way the micro benches hold the time trajectory.
//   2. Does the estimator still match? perf::predict_memory against the
//      measured HWMs, per tag (mem/model_rel_error/<tag>).
//   3. What does tracking cost? Best-of-reps iteration time with the arena
//      off vs track (mem/track_overhead_pct). Acceptance line: track mode
//      adds <= 5% — the binary hard-fails past that, so `ctest -L bench`
//      catches an accounting path that leaked onto the hot path.
//
//   $ ./bench_memory [--smoke] [--json BENCH_memory.json]
//        --smoke shrinks repetitions for the bench-smoke ctest gate.

#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "axonn/base/arena.hpp"
#include "axonn/base/rng.hpp"
#include "axonn/base/table.hpp"
#include "axonn/comm/thread_comm.hpp"
#include "axonn/core/grid4d.hpp"
#include "axonn/perf/memory_model.hpp"
#include "axonn/tensor/gemm_dispatch.hpp"
#include "axonn/train/adam.hpp"
#include "axonn/train/checkpoint.hpp"
#include "axonn/train/gpt_model.hpp"
#include "axonn/train/sentinel.hpp"
#include "json_out.hpp"

namespace {

using namespace axonn;

constexpr int kWarmupSteps = 2;
constexpr int kWindowSteps = 6;
constexpr std::size_t kBatch = 4;
constexpr std::size_t kLen = 17;  // input_len 16 after the target shift

/// The pinned configuration the memory model is exact for: one rank, no
/// OAG double-buffering, one GEMM lane.
train::TinyGPTConfig pinned_model_config() {
  train::TinyGPTConfig config;  // vocab 64, L2, h64, 4 heads
  config.overlap_collectives = false;
  return config;
}

std::vector<train::TokenSeq> make_batch(int vocab) {
  Rng rng(7);
  std::vector<train::TokenSeq> batch(kBatch);
  for (auto& seq : batch) {
    seq.resize(kLen);
    for (auto& t : seq) t = static_cast<std::int32_t>(rng.uniform_int(vocab));
  }
  return batch;
}

struct HwmRun {
  perf::MemoryModelChecker::Result check;
};

/// One tracked run: warm up, open a checker window, train, cross-validate.
/// The sentinel journals at kHeal so every tag is populated.
HwmRun run_tracked_window() {
  HwmRun out;
  comm::run_ranks(1, [&](comm::Communicator& world) {
    GemmThreadScope lanes(1);
    const train::TinyGPTConfig model_config = pinned_model_config();
    core::Grid4D grid(world, sim::GridShape{1, 1, 1, 1});
    train::GPTModel model(grid, model_config);
    train::Adam adam;
    model.register_params(adam);

    train::SentinelConfig sentinel_config;
    sentinel_config.mode = integrity::IntegrityMode::kHeal;
    train::TrainingSentinel sentinel(sentinel_config, world, model, adam);

    const auto batch = make_batch(model_config.vocab);
    train::TrainCursor cursor;
    auto step = [&] {
      sentinel.journal(cursor);
      model.zero_grad();
      const float loss = model.train_step(batch);
      adam.step();
      sentinel.check_step(loss, cursor);
      ++cursor.step;
    };
    for (int s = 0; s < kWarmupSteps; ++s) step();

    perf::MemoryModelChecker checker;
    checker.begin();
    for (int s = 0; s < kWindowSteps; ++s) step();

    perf::MemoryModelConfig config;
    config.batch = static_cast<int>(kBatch);
    config.input_len = static_cast<int>(kLen) - 1;
    config.overlap_collectives = false;
    config.gemm_lanes = 1;
    config.sentinel = true;
    out.check = checker.finish(perf::predict_memory(config));
  });
  return out;
}

/// Wall time of a kWindowSteps training window (no sentinel: the overhead
/// under test is the allocator's, not the journal's).
double run_timed_window_ms() {
  double ms = 0;
  comm::run_ranks(1, [&](comm::Communicator& world) {
    GemmThreadScope lanes(1);
    const train::TinyGPTConfig model_config = pinned_model_config();
    core::Grid4D grid(world, sim::GridShape{1, 1, 1, 1});
    train::GPTModel model(grid, model_config);
    train::Adam adam;
    model.register_params(adam);
    const auto batch = make_batch(model_config.vocab);
    auto step = [&] {
      model.zero_grad();
      model.train_step(batch);
      adam.step();
    };
    for (int s = 0; s < kWarmupSteps; ++s) step();
    const auto start = std::chrono::steady_clock::now();
    for (int s = 0; s < kWindowSteps; ++s) step();
    ms = std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
             .count();
  });
  return ms;
}

double best_of_ms(mem::Mode mode, int reps) {
  const mem::Mode prev = mem::mode();
  mem::set_mode(mode);
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    const double ms = run_timed_window_ms();
    if (r == 0 || ms < best) best = ms;
  }
  mem::set_mode(prev);
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::extract_json_path(argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }
  const int reps = smoke ? 3 : 7;
  bench::JsonSeriesWriter json("memory");

  // -- per-tag HWM + estimator cross-validation -----------------------------
  const mem::Mode prev_mode = mem::mode();
  mem::set_mode(mem::Mode::kTrack);
  const HwmRun tracked = run_tracked_window();
  mem::set_mode(prev_mode);

  const double x = 64.0;  // hidden size (room for a sweep without a schema
                          // change)
  std::printf("Per-tag arena high-water marks, tiny GPT (h=64, L=2, "
              "batch %zu x %zu tokens, %d-step window)\n\n",
              kBatch, kLen - 1, kWindowSteps);
  Table table({"tag", "predicted B", "measured B", "rel error", "checked"});
  for (const auto& tr : tracked.check.tags) {
    table.add_row({mem::to_string(tr.tag), Table::cell(tr.predicted_bytes, 0),
                   Table::cell(tr.measured_bytes, 0),
                   Table::cell(tr.rel_error, 4), tr.checked ? "yes" : "no"});
    if (tr.tag == mem::Tag::kUntagged) continue;  // ambient noise, ungated
    const std::string tag = mem::to_string(tr.tag);
    json.add("mem/hwm/" + tag, x, tr.measured_bytes, "bytes");
    json.add("mem/model_rel_error/" + tag, x, tr.rel_error, "rel_error");
  }
  table.print(std::cout);
  std::printf("\nestimator worst checked rel error: %.4f (model %s)\n",
              tracked.check.worst_rel_error,
              tracked.check.ok ? "ok" : "DIVERGED");

  // -- tracking overhead ----------------------------------------------------
  const double off_ms = best_of_ms(mem::Mode::kOff, reps);
  const double track_ms = best_of_ms(mem::Mode::kTrack, reps);
  const double overhead_pct = 100.0 * (track_ms - off_ms) / off_ms;
  std::printf("\niteration window, best of %d: off %.2f ms, track %.2f ms "
              "(overhead %+.1f%%)\n",
              reps, off_ms, track_ms, overhead_pct);
  json.add("mem/iteration_window/off_ms", x, off_ms, "ms");
  json.add("mem/iteration_window/track_ms", x, track_ms, "ms");
  json.add("mem/track_overhead_pct", x, overhead_pct, "overhead_pct");

  if (!json_path.empty()) json.write_file(json_path);

  // Acceptance lines: the estimator holds per tag, and track-mode
  // accounting stays off the hot path.
  const bool model_ok = tracked.check.ok;
  const bool overhead_ok = overhead_pct <= 5.0;
  std::printf("\nacceptance: estimator within 10%% per tag -> %s; track "
              "overhead %.1f%% <= 5%% -> %s\n",
              model_ok ? "PASS" : "FAIL", overhead_pct,
              overhead_ok ? "PASS" : "FAIL");
  return (model_ok && overhead_ok) ? 0 : 1;
}
