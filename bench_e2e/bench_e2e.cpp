// bench_e2e — the repository benchmark: tiny-GPT training and decoding and
// Algorithm 1's 4D FC stack, run on the real thread-rank runtime and timed
// end to end, with a per-layer breakdown timed around public calls.
//
//   bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke]
//
// The load is a closed loop: every rank thread starts its next step only
// after every rank finished the previous one (a host-side barrier outside
// the library), so a step's wall time is the slowest rank's. Each workload
// fixes only the model shape, the grid, the batch and the seed; every other
// option is the library default (fc4d_x2z2 alone turns on OAR/ORS/OAG).
// --trace 0 prints the end-to-end metrics; --trace 1 runs an untraced and a
// traced window back to back and prints the per-layer metrics. End-to-end
// times are scaled to a reference host speed, read by a fixed kernel run
// between steps (see reference_ms()). The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. README.md in this directory lists the workloads and metrics.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "axonn/base/arena.hpp"
#include "axonn/base/metrics.hpp"
#include "axonn/base/partition.hpp"
#include "axonn/base/rng.hpp"
#include "axonn/comm/thread_comm.hpp"
#include "axonn/core/comm_check.hpp"
#include "axonn/core/grid4d.hpp"
#include "axonn/core/mlp.hpp"
#include "axonn/perf/gemm_calibration.hpp"
#include "axonn/tensor/gemm.hpp"
#include "axonn/train/adam.hpp"
#include "axonn/train/gpt_model.hpp"

extern char** environ;

namespace {

using namespace axonn;

constexpr double kMiB = 1024.0 * 1024.0;
/// Setups per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 5;
/// Every window runs at least this many steps, whatever --seconds says.
constexpr int kMinSteps = 2;
/// Adam steps and learning rate of the cross-grid loss check (those of the
/// GPT model's own serial-equivalence tests).
constexpr int kCheckSteps = 3;
constexpr float kCheckLr = 1e-3f;
/// Loss agreement of the cross-grid check (the same tests' tolerance).
constexpr float kLossTolerance = 5e-3f;
/// The serial loss must drop by at least this much over the check's steps,
/// so that a missing or wrong update cannot pass the agreement test.
constexpr float kMinLossDrop = 10 * kLossTolerance;
/// fc4d forward agreement with the 1-rank stack (the MLP tests' tolerance).
constexpr float kForwardTolerance = 5e-4f;
constexpr float kSgdLr = 0.05f;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double total(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

// ---------------------------------------------------------------------------
// Host speed reference
// ---------------------------------------------------------------------------

/// What reference_ms() reads on an uncontended core of a 4-vCPU AVX-512
/// Xeon VM. One-rank end-to-end times are scaled to a host of that speed.
constexpr double kReferenceNominalMs = 6.5;

/// Keeps the reference kernel's result alive.
volatile float reference_sink = 0;

/// Times a fixed kernel owned by the benchmark (a 64x64x64 float
/// multiply-accumulate, repeated) on the calling thread. It runs between
/// steps, outside every timed window, so it reads the speed the host gives
/// this thread at that moment. On a shared host that speed swings by 2x for
/// seconds at a time; the kernel shares none of the library's code, so a
/// library change cannot move it.
double reference_ms() {
  constexpr int n = 64, reps = 50;
  thread_local std::vector<float> a, b, c;
  if (a.empty()) {
    a.resize(n * n);
    b.resize(n * n);
    for (int i = 0; i < n * n; ++i) {
      a[i] = float(i % 7) * 0.01f;
      b[i] = float(i % 5) * 0.02f;
    }
  }
  c.assign(n * n, 0.0f);
  const double t0 = now_s();
  for (int rep = 0; rep < reps; ++rep) {
    for (int i = 0; i < n; ++i) {
      for (int k = 0; k < n; ++k) {
        const float aik = a[i * n + k];
        for (int j = 0; j < n; ++j) c[i * n + j] += aik * b[k * n + j];
      }
    }
  }
  const double ms = 1e3 * (now_s() - t0);
  reference_sink = c[0];
  return ms;
}

/// Scales `seconds`, timed while reference_ms() read `host_ms`, to reference
/// speed. Only one-rank workloads are scaled. A one-rank step is one thread's
/// compute, which the reference tracks: over ten seeds the spread of
/// step_ms_p50 is 4-10% scaled and 10-45% unscaled. A multi-rank step spans
/// every vCPU and waits on its peers, and its time does not follow the
/// reference read with every rank busy: scaling widened fc4d_x2z2's spread
/// from 6-8% to 10-12%.
double to_reference_speed(double seconds, double host_ms, int ranks) {
  return ranks == 1 ? seconds * kReferenceNominalMs / host_ms : seconds;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Workload { kTrain1r, kTrainZ2d2, kDecode, kFc4d };

struct Config {
  Workload workload = Workload::kTrain1r;
  std::string name;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool smoke = false;
};

/// Model shape, grid and batch: the only settings a workload makes.
struct Shape {
  sim::GridShape grid;
  train::TinyGPTConfig gpt;
  int batch = 0;       ///< global training sequences per step
  int prompt = 0;      ///< decode prompt tokens
  int new_tokens = 0;  ///< decode tokens generated per call
  std::vector<std::size_t> mlp_dims;
  std::size_t mlp_rows = 0;
};

Shape shape_of(const Config& config) {
  Shape s;
  s.gpt.seed = config.seed;
  if (config.smoke) {
    s.gpt.vocab = 32;
    s.gpt.max_seq = 16;
    s.gpt.layers = 1;
    s.gpt.hidden = 32;
    s.gpt.heads = 2;
    s.batch = 8;
    s.prompt = 4;
    s.new_tokens = 12;
    s.mlp_dims = {16, 32, 16, 32, 16};
    s.mlp_rows = 16;
  } else {
    s.gpt.vocab = 256;
    s.gpt.max_seq = 64;
    s.gpt.layers = 2;
    s.gpt.hidden = 128;
    s.gpt.heads = 4;
    s.batch = 8;
    s.prompt = 8;
    s.new_tokens = 56;
    s.mlp_dims = {256, 1024, 256, 1024, 256};
    s.mlp_rows = 256;
  }
  switch (config.workload) {
    case Workload::kTrain1r:
    case Workload::kDecode: s.grid = sim::GridShape{1, 1, 1, 1}; break;
    case Workload::kTrainZ2d2: s.grid = sim::GridShape{1, 1, 2, 2}; break;
    case Workload::kFc4d: s.grid = sim::GridShape{2, 1, 2, 1}; break;
  }
  return s;
}

/// Work one step completes: training tokens over all ranks, generated
/// tokens, or MLP rows.
double units_per_step(const Config& config, const Shape& s) {
  switch (config.workload) {
    case Workload::kTrain1r:
    case Workload::kTrainZ2d2: return double(s.batch) * s.gpt.max_seq;
    case Workload::kDecode: return s.new_tokens;
    case Workload::kFc4d: return double(s.mlp_rows);
  }
  return 0;
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream,
                  std::uint64_t index) {
  return seed * 0x9E3779B97F4A7C15ULL ^ (stream << 48) ^ index;
}

train::TokenSeq random_tokens(Rng& rng, int length, int vocab) {
  train::TokenSeq seq(static_cast<std::size_t>(length));
  for (auto& t : seq) {
    t = static_cast<std::int32_t>(rng.uniform_int(std::uint64_t(vocab)));
  }
  return seq;
}

/// The global training batch of step `step`.
std::vector<train::TokenSeq> global_batch(const Config& c, const Shape& s,
                                          int step) {
  Rng rng(mix(c.seed, 1, std::uint64_t(step)));
  std::vector<train::TokenSeq> batch;
  for (int i = 0; i < s.batch; ++i) {
    batch.push_back(random_tokens(rng, s.gpt.max_seq, s.gpt.vocab));
  }
  return batch;
}

/// This rank's share of the global batch: ranks split it in (d, z) order,
/// so the grid trains on the same global batch as one rank does.
std::vector<train::TokenSeq> rank_shard(
    const std::vector<train::TokenSeq>& batch, const core::Grid4D& grid) {
  const auto& g = grid.shape();
  const std::size_t parts = std::size_t(g.gz) * std::size_t(g.gdata);
  const std::size_t index =
      std::size_t(grid.d()) * std::size_t(g.gz) + std::size_t(grid.z());
  const Range r = chunk_range(batch.size(), parts, index);
  return {batch.begin() + std::ptrdiff_t(r.begin),
          batch.begin() + std::ptrdiff_t(r.end)};
}

train::TokenSeq decode_prompt(const Config& c, const Shape& s, int call) {
  Rng rng(mix(c.seed, 2, std::uint64_t(call)));
  return random_tokens(rng, s.prompt, s.gpt.vocab);
}

// ---------------------------------------------------------------------------
// Closed-loop step clock shared by the rank threads
// ---------------------------------------------------------------------------

/// A host-side barrier that brackets every step: begin() aligns the ranks
/// and stamps the step start, end() stamps each rank's finish and the step
/// end, and decides — once, for every rank — whether the window goes on.
/// The first begin() opens the window (and its memory high-water window);
/// the end() that closes it snapshots the per-tag high-water marks.
class StepLoop {
 public:
  StepLoop(int ranks, double seconds, int min_steps, bool traced = false)
      : ranks_(ranks),
        seconds_(seconds),
        min_steps_(min_steps),
        traced_(traced),
        finish_s_(std::size_t(ranks), 0.0) {}

  void begin() { sync(-1); }
  /// Returns false once the window is over.
  bool end(int rank) { return sync(rank); }
  /// Wakes every waiter with an error (a rank failed mid-window).
  void abort() {
    std::lock_guard<std::mutex> lock(mutex_);
    aborted_ = true;
    cv_.notify_all();
  }

  bool traced() const { return traced_; }
  double start_s() const { return start_s_; }
  std::size_t steps() const { return step_s.size(); }

  std::vector<double> step_s;  ///< wall seconds of each step
  std::vector<double> skew_s;  ///< last minus first rank finish, per step
  std::uint64_t hwm_bytes[mem::kNumTags] = {};
  std::uint64_t total_hwm_bytes = 0;

 private:
  bool sync(int rank) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (rank >= 0) finish_s_[std::size_t(rank)] = now_s();
    const std::uint64_t phase = phase_;
    if (++arrived_ == ranks_) {
      arrived_ = 0;
      ++phase_;
      rank >= 0 ? close_step() : open_step();
      cv_.notify_all();
    } else {
      cv_.wait(lock, [&] { return phase_ != phase || aborted_; });
    }
    if (aborted_) throw std::runtime_error("step loop aborted by a rank");
    return !stop_;
  }

  void open_step() {
    step_start_s_ = now_s();
    if (start_s_ < 0) {
      start_s_ = step_start_s_;
      if (traced_) obs::metrics::set_enabled(true);
      mem::reset_high_water_marks();
    }
  }

  void close_step() {
    const double t = now_s();
    step_s.push_back(t - step_start_s_);
    const auto [lo, hi] =
        std::minmax_element(finish_s_.begin(), finish_s_.end());
    skew_s.push_back(*hi - *lo);
    stop_ = int(step_s.size()) >= min_steps_ && t - start_s_ >= seconds_;
    if (stop_) {
      for (std::size_t i = 0; i < mem::kNumTags; ++i) {
        hwm_bytes[i] = mem::tag_stats(static_cast<mem::Tag>(i)).hwm_bytes;
      }
      total_hwm_bytes = mem::total_hwm_bytes();
    }
  }

  const int ranks_;
  const double seconds_;
  const int min_steps_;
  const bool traced_;
  std::mutex mutex_;
  std::condition_variable cv_;
  int arrived_ = 0;
  std::uint64_t phase_ = 0;
  bool aborted_ = false;
  bool stop_ = false;
  double start_s_ = -1;
  double step_start_s_ = 0;
  std::vector<double> finish_s_;
};

// ---------------------------------------------------------------------------
// Per-rank records
// ---------------------------------------------------------------------------

/// Counters read on a rank thread at step boundaries.
struct Counters {
  double stall_s = 0;
  double gemm_calls = 0;
  double gemm_flops = 0;
  double wire_bytes = 0;
  double all_reduce_calls = 0;
  double all_gather_calls = 0;
  double reduce_scatter_calls = 0;
  double crc_retransmits = 0;

  /// Collectives on single-member groups move nothing and are not counted;
  /// nor are their no-op waits, which the stall clock would charge.
  static Counters read(core::Grid4D& grid) {
    comm::CommStats c;
    bool peers = false;
    for (comm::Communicator* group : {&grid.x_comm(), &grid.y_comm(),
                                      &grid.z_comm(), &grid.data_comm()}) {
      if (group->size() > 1) {
        c += group->stats();
        peers = true;
      }
    }
    return {peers ? obs::metrics::thread_stall_seconds() : 0.0,
            double(gemm_dispatch_count()),
            double(gemm_dispatch_flops()),
            double(c.wire_bytes_sent),
            double(c.all_reduce_calls),
            double(c.all_gather_calls),
            double(c.reduce_scatter_calls),
            double(c.crc_retransmits)};
  }
  /// this += (to - from)
  void add_delta(const Counters& from, const Counters& to) {
    stall_s += to.stall_s - from.stall_s;
    gemm_calls += to.gemm_calls - from.gemm_calls;
    gemm_flops += to.gemm_flops - from.gemm_flops;
    wire_bytes += to.wire_bytes - from.wire_bytes;
    all_reduce_calls += to.all_reduce_calls - from.all_reduce_calls;
    all_gather_calls += to.all_gather_calls - from.all_gather_calls;
    reduce_scatter_calls += to.reduce_scatter_calls - from.reduce_scatter_calls;
    crc_retransmits += to.crc_retransmits - from.crc_retransmits;
  }
};

/// One rank's view of one window.
struct RankLog {
  std::map<std::string, std::vector<double>> calls;  ///< seconds per call
  double in_step_s = 0;  ///< time inside timed calls between begin and end
  Counters counted;      ///< deltas summed over the window's steps
  int bad_steps = 0;     ///< non-finite loss
  /// reference_ms() before each step and once after the last: step i lies
  /// between entries i and i + 1.
  std::vector<double> reference_ms;
};

struct Window {
  Window(int ranks, double seconds, bool traced)
      : loop(ranks, seconds, kMinSteps, traced), logs(std::size_t(ranks)) {}
  StepLoop loop;
  std::vector<RankLog> logs;
};

/// Brackets a rank's steps in one window and times the calls inside.
class Recorder {
 public:
  Recorder(Window& window, int rank, core::Grid4D& grid)
      : loop_(window.loop), log_(window.logs[std::size_t(rank)]),
        rank_(rank), grid_(grid) {}

  void begin() {
    log_.reference_ms.push_back(reference_ms());
    loop_.begin();
    at_begin_ = Counters::read(grid_);
    in_step_ = true;
  }
  /// Returns false once the window is over.
  bool end(bool finite = true) {
    in_step_ = false;
    log_.counted.add_delta(at_begin_, Counters::read(grid_));
    if (!finite) ++log_.bad_steps;
    const bool more = loop_.end(rank_);
    if (!more) log_.reference_ms.push_back(reference_ms());
    return more;
  }
  template <typename F>
  void time(const char* name, F&& fn) {
    const double t0 = now_s();
    fn();
    const double dt = now_s() - t0;
    log_.calls[name].push_back(dt);
    if (in_step_) log_.in_step_s += dt;
  }

 private:
  StepLoop& loop_;
  RankLog& log_;
  int rank_;
  core::Grid4D& grid_;
  Counters at_begin_;
  bool in_step_ = false;
};

// ---------------------------------------------------------------------------
// A run: repeated setups, the timed windows, the correctness checks
// ---------------------------------------------------------------------------

/// Ends the ranks' set-up: aligns them, then reads the host speed on each
/// rank thread.
struct SetupClock {
  explicit SetupClock(int ranks)
      : loop(ranks, 0, 0), after_ms(std::size_t(ranks)) {}
  void done(int rank) {
    loop.begin();
    after_ms[std::size_t(rank)] = reference_ms();
  }
  StepLoop loop;
  std::vector<double> after_ms;  ///< reference_ms() per rank, after set-up
};

struct Run {
  Config config;
  Shape shape;
  int ranks = 1;
  std::vector<std::unique_ptr<Window>> windows;
  std::vector<double> setup_raw_s;  ///< wall seconds of each set-up
  std::vector<double> setup_s;      ///< the same at reference host speed

  // fc4d inputs and the per-rank forward blocks its check compares.
  Matrix mlp_inputs, mlp_targets;
  struct Block {
    Range rows, cols;
    Matrix out;
  };
  std::vector<Block> mlp_blocks;

  std::mutex mutex;  ///< guards the check tallies below (rank threads)
  int checks = 0;    ///< standalone checks (each counts as an attempt)
  std::vector<std::string> failures;

  void check(bool ok, const std::string& what) {
    std::lock_guard<std::mutex> lock(mutex);
    ++checks;
    if (!ok) failures.push_back(what);
  }
  /// A check on one step's output (the step is already an attempt).
  void check_step(bool ok, const std::string& what) {
    std::lock_guard<std::mutex> lock(mutex);
    if (!ok) failures.push_back(what);
  }
};

using RankBody = void (*)(Run&, comm::Communicator&, SetupClock& setup,
                          bool timed);

void gpt_train_body(Run& run, comm::Communicator& world, SetupClock& setup,
                    bool timed) {
  const Config& c = run.config;
  const Shape& s = run.shape;
  core::Grid4D grid(world, s.grid);
  train::GPTModel model(grid, s.gpt);
  train::Adam adam;
  model.register_params(adam);
  int step = 0;
  {  // warm-up step
    const auto shard = rank_shard(global_batch(c, s, step++), grid);
    model.zero_grad();
    model.train_step(shard);
    adam.step();
  }
  setup.done(world.rank());
  if (!timed) return;

  for (auto& window : run.windows) {
    Recorder rec(*window, world.rank(), grid);
    for (bool more = true; more;) {
      const auto shard = rank_shard(global_batch(c, s, step++), grid);
      rec.begin();
      float loss = 0;
      rec.time("zero_grad", [&] { model.zero_grad(); });
      rec.time("train_step", [&] { loss = model.train_step(shard); });
      rec.time("optimizer", [&] { adam.step(); });
      more = rec.end(std::isfinite(loss));
      // Forward-only replay of the same batch, outside the step: splits
      // train_step into forward and backward + gradient sync.
      if (window->loop.traced()) {
        rec.time("forward", [&] { model.evaluate_loss(shard); });
      }
    }
  }
}

void gpt_decode_body(Run& run, comm::Communicator& world, SetupClock& setup,
                     bool timed) {
  const Config& c = run.config;
  const Shape& s = run.shape;
  core::Grid4D grid(world, s.grid);
  train::GPTModel model(grid, s.gpt);
  int call = 0;
  model.greedy_generate(decode_prompt(c, s, call++),
                        std::min(8, s.new_tokens));  // warm-up
  setup.done(world.rank());
  if (!timed) return;

  std::vector<train::TokenSeq> outputs;
  for (auto& window : run.windows) {
    Recorder rec(*window, world.rank(), grid);
    for (bool more = true; more;) {
      const train::TokenSeq prompt = decode_prompt(c, s, call++);
      train::TokenSeq out;
      rec.begin();
      rec.time("generate",
               [&] { out = model.greedy_generate(prompt, s.new_tokens); });
      more = rec.end();
      outputs.push_back(std::move(out));
    }
  }
  // Teacher-forced self-consistency of every greedy output.
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    const bool ok =
        outputs[i].size() == std::size_t(s.prompt + s.new_tokens) &&
        model.probe_accuracy(outputs[i], s.new_tokens) == 1.0;
    run.check_step(ok, "decode output " + std::to_string(i) +
                           " is not self-consistent under teacher forcing");
  }
}

core::MLPOptions fc4d_options() {
  core::MLPOptions options;
  options.overlap_input_grad_all_reduce = true;       // OAR
  options.overlap_weight_grad_reduce_scatter = true;  // ORS
  options.overlap_weight_all_gather = true;           // OAG
  return options;
}

void fc4d_body(Run& run, comm::Communicator& world, SetupClock& setup,
               bool timed) {
  const Shape& s = run.shape;
  core::Grid4D grid(world, s.grid);
  core::TensorParallelMLP mlp(grid, s.mlp_dims, run.config.seed,
                              fc4d_options());
  const Range group = chunk_range(s.mlp_rows, std::size_t(s.grid.gdata),
                                  std::size_t(grid.d()));
  const Matrix input =
      run.mlp_inputs.block(group, Range{0, s.mlp_dims.front()});
  const Matrix target =
      run.mlp_targets.block(group, Range{0, s.mlp_dims.back()});
  const auto& last = mlp.layer(mlp.num_layers() - 1);
  const Matrix target_local =
      target.block(last.input_row_range(group.size()), last.output_col_range());
  const float grad_scale = 1.0f / float(s.mlp_rows);

  // 0.5 * mean-over-rows ||out - target||^2 on this rank's output block.
  auto loss_grad = [&](const Matrix& out, float& loss) {
    Matrix grad = out;
    grad.axpy_inplace(-1.0f, target_local);
    double sq = 0;
    for (std::size_t i = 0; i < grad.size(); ++i) {
      sq += double(grad.data()[i]) * grad.data()[i];
    }
    loss = float(0.5 * sq * grad_scale);
    grad.scale_inplace(grad_scale);
    return grad;
  };

  {  // warm-up step
    float loss = 0;
    mlp.zero_grad();
    mlp.backward(loss_grad(mlp.forward(mlp.scatter_input(input)), loss));
    mlp.sync_gradients_data_parallel();
    mlp.apply_sgd(kSgdLr);
  }
  setup.done(world.rank());
  if (!timed) return;

  for (auto& window : run.windows) {
    Recorder rec(*window, world.rank(), grid);
    for (bool more = true; more;) {
      rec.begin();
      Matrix out, grad;
      float loss = 0;
      rec.time("mlp_zero_grad", [&] { mlp.zero_grad(); });
      rec.time("mlp_forward",
               [&] { out = mlp.forward(mlp.scatter_input(input)); });
      grad = loss_grad(out, loss);
      rec.time("mlp_backward", [&] { mlp.backward(grad); });
      rec.time("mlp_sync", [&] { mlp.sync_gradients_data_parallel(); });
      rec.time("mlp_sgd", [&] { mlp.apply_sgd(kSgdLr); });
      more = rec.end(std::isfinite(loss));
    }
  }

  // Checks on a fresh, same-seed stack: one step whose wire bytes must equal
  // the Eq. 1-5 prediction, and whose forward output is kept for comparison
  // with the 1-rank stack.
  core::TensorParallelMLP fresh(grid, s.mlp_dims, run.config.seed,
                                fc4d_options());
  core::CommModelChecker checker(grid, /*tolerance=*/1e-9);
  checker.begin();
  for (std::size_t i = 0; i < fresh.num_layers(); ++i) {
    checker.expect(core::predicted_layer_wire_bytes(
        fresh.layer(i), group.size(), s.grid.gdata > 1));
  }
  Matrix out = fresh.forward(fresh.scatter_input(input));
  float loss = 0;
  fresh.backward(loss_grad(out, loss));
  fresh.sync_gradients_data_parallel();
  const auto result = checker.finish();
  char what[160];
  std::snprintf(what, sizeof what,
                "rank %d wire bytes %.0f differ from the Eq. 1-5 "
                "prediction %.0f",
                world.rank(), result.measured.total(),
                result.predicted.total());
  run.check(result.ok && result.predicted.total() > 0, what);
  const auto& fresh_last = fresh.layer(fresh.num_layers() - 1);
  const Range rows = fresh_last.input_row_range(group.size());
  std::lock_guard<std::mutex> lock(run.mutex);
  run.mlp_blocks[std::size_t(world.rank())] = {
      Range{group.begin + rows.begin, group.begin + rows.end},
      fresh_last.output_col_range(), std::move(out)};
}

RankBody body_of(Workload w) {
  switch (w) {
    case Workload::kTrain1r:
    case Workload::kTrainZ2d2: return gpt_train_body;
    case Workload::kDecode: return gpt_decode_body;
    case Workload::kFc4d: return fc4d_body;
  }
  return nullptr;
}

struct CheckLoss {
  float before = 0;  ///< on the check batch, before training
  float after = 0;   ///< on the same batch, after kCheckSteps Adam steps
};

/// Trains kCheckSteps steps on one global batch, each rank on its shard, and
/// returns the loss on that batch before and after (rank 0's view; every
/// rank computes the same value).
CheckLoss check_training_loss(const Config& c, Shape shape,
                              sim::GridShape grid_shape) {
  shape.grid = grid_shape;
  CheckLoss result;
  comm::run_ranks(int(grid_shape.total()), [&](comm::Communicator& world) {
    core::Grid4D grid(world, grid_shape);
    train::GPTModel model(grid, shape.gpt);
    train::Adam adam(train::AdamConfig{.lr = kCheckLr});
    model.register_params(adam);
    const auto batch = global_batch(c, shape, 0);
    const auto shard = rank_shard(batch, grid);
    CheckLoss loss;
    loss.before = model.evaluate_loss(batch);
    for (int step = 0; step < kCheckSteps; ++step) {
      model.zero_grad();
      model.train_step(shard);
      adam.step();
    }
    loss.after = model.evaluate_loss(batch);
    if (world.rank() == 0) result = loss;
  });
  return result;
}

void run_checks(Run& run) {
  const Config& c = run.config;
  const Shape& s = run.shape;
  switch (c.workload) {
    case Workload::kTrain1r:
    case Workload::kTrainZ2d2: {
      // Algorithm 1 equals serial training: the same seed and global batches
      // on one rank and on the Z x data grid give the same loss.
      const CheckLoss serial = check_training_loss(c, s, {1, 1, 1, 1});
      const CheckLoss grid = check_training_loss(c, s, {1, 1, 2, 2});
      char what[200];
      std::snprintf(what, sizeof what,
                    "loss over %d steps: 1 rank %.6f -> %.6f, 1x1x2x2 grid "
                    "%.6f -> %.6f",
                    kCheckSteps, serial.before, serial.after, grid.before,
                    grid.after);
      run.check(std::isfinite(serial.after) && std::isfinite(grid.after) &&
                    serial.before - serial.after >= kMinLossDrop &&
                    std::fabs(serial.after - grid.after) <= kLossTolerance,
                what);
      std::printf("check: %s\n", what);
      break;
    }
    case Workload::kDecode: break;  // checked per output inside the run
    case Workload::kFc4d: {
      Matrix reference;
      comm::run_ranks(1, [&](comm::Communicator& world) {
        core::Grid4D grid(world, sim::GridShape{1, 1, 1, 1});
        core::TensorParallelMLP mlp(grid, s.mlp_dims, c.seed, fc4d_options());
        reference = mlp.forward(mlp.scatter_input(run.mlp_inputs));
      });
      for (std::size_t r = 0; r < run.mlp_blocks.size(); ++r) {
        const auto& b = run.mlp_blocks[r];
        const bool shaped = !b.out.empty() && b.out.rows() == b.rows.size() &&
                            b.out.cols() == b.cols.size();
        const float diff =
            shaped
                ? Matrix::max_abs_diff(b.out, reference.block(b.rows, b.cols))
                : INFINITY;
        run.check(diff <= kForwardTolerance,
                  "rank " + std::to_string(r) + " forward differs from the " +
                      "1-rank stack by " + std::to_string(diff));
      }
      break;
    }
  }
}

/// Runs the setups and the timed windows. Throws what a rank threw.
void execute(Run& run) {
  // An untraced run first sets up kSetupRepeats times for setup_s alone.
  const int repeats = run.config.trace ? 0 : kSetupRepeats;
  const RankBody body = body_of(run.config.workload);
  for (int rep = 0; rep <= repeats; ++rep) {
    const bool timed = rep == repeats;
    SetupClock setup(run.ranks);
    const double before_ms = reference_ms();
    const double t0 = now_s();
    comm::run_ranks(run.ranks, [&](comm::Communicator& world) {
      try {
        body(run, world, setup, timed);
      } catch (...) {
        // Peers may wait on a host barrier the library cannot unblock.
        setup.loop.abort();
        for (auto& window : run.windows) window->loop.abort();
        throw;
      }
    });
    if (timed) break;
    run.setup_raw_s.push_back(setup.loop.start_s() - t0);
    run.setup_s.push_back(to_reference_speed(
        run.setup_raw_s.back(), 0.5 * (before_ms + setup.after_ms.front()),
        run.ranks));
  }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string base;  ///< what a ratio or mean is taken over
  std::size_t samples;
};

/// Per step, the mean over ranks of one call's seconds; then the median
/// over steps, in ms. 0 when the workload makes no such call.
double call_ms(const Window& w, const char* name) {
  std::vector<double> per_step;
  for (const auto& log : w.logs) {
    const auto it = log.calls.find(name);
    if (it == log.calls.end()) return 0;
    per_step.resize(std::max(per_step.size(), it->second.size()), 0.0);
    for (std::size_t i = 0; i < it->second.size(); ++i) {
      per_step[i] += it->second[i] / double(w.logs.size());
    }
  }
  return 1e3 * median(per_step);
}

/// Each step's wall seconds at reference speed, by rank 0's reference_ms()
/// read just before and just after the step.
std::vector<double> reference_step_s(const Window& w) {
  const std::vector<double>& host_ms = w.logs.front().reference_ms;
  std::vector<double> scaled;
  for (std::size_t i = 0; i < w.loop.steps(); ++i) {
    scaled.push_back(to_reference_speed(w.loop.step_s[i],
                                        0.5 * (host_ms[i] + host_ms[i + 1]),
                                        int(w.logs.size())));
  }
  return scaled;
}

std::vector<Metric> end_to_end_metrics(const Run& run) {
  const Window& w = *run.windows.front();
  const std::size_t n = w.loop.steps();
  const double units = units_per_step(run.config, run.shape);
  const std::vector<double> step_s = reference_step_s(w);
  return {
      {"tokens_per_s", double(n) * units / total(step_s), "tokens/s",
       "work over summed step time", n},
      {"step_ms_p50", 1e3 * median(step_s), "ms", "steps", n},
      {"setup_s", median(run.setup_s), "s", "setups", run.setup_s.size()},
      {"peak_mem_mb", double(w.loop.total_hwm_bytes) / kMiB, "MiB",
       "tracked arena, all ranks", 1},
  };
}

/// The end-to-end times as the wall clock read them, and the host speed they
/// were scaled by: printed in the report, not in the JSON.
std::vector<Metric> wall_clock_metrics(const Run& run) {
  const Window& w = *run.windows.front();
  const std::size_t n = w.loop.steps();
  std::vector<double> host_ms;
  for (const auto& log : w.logs) {
    host_ms.insert(host_ms.end(), log.reference_ms.begin(),
                   log.reference_ms.end());
  }
  return {
      {"wall.tokens_per_s",
       double(n) * units_per_step(run.config, run.shape) / total(w.loop.step_s),
       "tokens/s", "work over summed step wall time", n},
      {"wall.step_ms_p50", 1e3 * median(w.loop.step_s), "ms", "steps", n},
      {"wall.setup_s", median(run.setup_raw_s), "s", "setups",
       run.setup_raw_s.size()},
      {"host.reference_ms", median(host_ms), "ms",
       "nominal " + std::to_string(kReferenceNominalMs) + " ms",
       host_ms.size()},
  };
}

std::vector<Metric> per_layer_metrics(const Run& run,
                                      double calibrated_gflops) {
  const Window& plain = *run.windows.front();
  const Window& w = *run.windows.back();
  const std::size_t n = w.loop.steps();
  const double ranks = double(w.logs.size());
  const double step_s = total(w.loop.step_s);

  Counters summed;  // window totals summed over ranks
  double stall_max_s = 0, in_step_s = 0;
  for (const auto& log : w.logs) {
    const Counters& c = log.counted;
    summed.add_delta(Counters{}, c);
    stall_max_s = std::max(stall_max_s, c.stall_s);
    in_step_s += log.in_step_s;
  }
  const double per_step = 1.0 / (double(n) * ranks);  // per step per rank
  const double step_ms_of_train = call_ms(w, "train_step");
  const double forward_ms = call_ms(w, "forward");
  const double achieved = summed.gemm_flops / ranks / step_s * 1e-9;
  // Both windows at reference speed, so a host slowdown between them does
  // not read as tracing overhead.
  const double plain_ms = 1e3 * median(reference_step_s(plain));
  const double traced_ms = 1e3 * median(reference_step_s(w));

  std::vector<Metric> m = {
      {"train.step_ms", step_ms_of_train, "ms", "median step, rank mean", n},
      {"train.forward_ms", forward_ms, "ms", "median replay, rank mean", n},
      {"train.backward_sync_ms", step_ms_of_train - forward_ms, "ms",
       "train.step_ms - train.forward_ms", n},
      {"train.optimizer_ms", call_ms(w, "optimizer"), "ms", "median step", n},
      {"train.zero_grad_ms", call_ms(w, "zero_grad"), "ms", "median step", n},
      {"train.generate_ms_per_token",
       call_ms(w, "generate") / run.shape.new_tokens, "ms/token",
       "median call / generated tokens", n},
      {"core.mlp_forward_ms", call_ms(w, "mlp_forward"), "ms", "median step",
       n},
      {"core.mlp_backward_ms", call_ms(w, "mlp_backward"), "ms",
       "median step", n},
      {"core.mlp_sync_ms", call_ms(w, "mlp_sync"), "ms", "median step", n},
      {"core.mlp_sgd_ms", call_ms(w, "mlp_sgd"), "ms", "median step", n},
      {"comm.stall_ms.mean", 1e3 * summed.stall_s * per_step, "ms/step",
       "rank mean", n},
      {"comm.stall_ms.max", 1e3 * stall_max_s / double(n), "ms/step",
       "slowest rank", n},
      {"comm.stall_share", summed.stall_s / ranks / step_s, "ratio",
       "step wall time", n},
      {"comm.wire_mb", summed.wire_bytes * per_step / kMiB, "MiB/step",
       "per rank", n},
      {"comm.all_reduce_calls", summed.all_reduce_calls * per_step,
       "count/step", "per rank", n},
      {"comm.all_gather_calls", summed.all_gather_calls * per_step,
       "count/step", "per rank", n},
      {"comm.reduce_scatter_calls", summed.reduce_scatter_calls * per_step,
       "count/step", "per rank", n},
      {"comm.crc_retransmits", summed.crc_retransmits, "count",
       "window, all ranks", n},
      {"comm.rank_skew_ms", 1e3 * median(w.loop.skew_s), "ms",
       "last - first rank finish", n},
      {"tensor.gemm_calls", summed.gemm_calls * per_step, "count/step",
       "per rank", n},
      {"tensor.gemm_gflop", summed.gemm_flops * per_step * 1e-9, "GF/step",
       "per rank", n},
      {"tensor.achieved_gflops", achieved, "GF/s", "per rank, step wall time",
       n},
      {"tensor.calibrated_gflops", calibrated_gflops, "GF/s",
       "tiled NN 256^3, default lanes", 3},
      {"tensor.achieved_frac", achieved / calibrated_gflops, "ratio",
       "tensor.calibrated_gflops", n},
  };
  for (std::size_t t = 1; t < mem::kNumTags; ++t) {
    const auto tag = static_cast<mem::Tag>(t);
    if (tag == mem::Tag::kJournal) continue;
    m.push_back({std::string("mem.hwm_mb.") + mem::to_string(tag),
                 double(w.loop.hwm_bytes[t]) / kMiB, "MiB",
                 "tracked arena, all ranks", 1});
  }
  m.push_back({"bench.unattributed_frac", 1.0 - in_step_s / ranks / step_s,
               "ratio", "step wall time outside timed calls", n});
  m.push_back({"bench.trace_overhead_frac", traced_ms / plain_ms - 1.0,
               "ratio",
               "untraced step_ms_p50 " + std::to_string(plain_ms) + " ms",
               plain.loop.steps()});
  return m;
}

void print_table(const std::vector<Metric>& metrics, bool header = true) {
  if (header) {
    std::printf("  %-30s %16s  %-10s %7s  %s\n", "metric", "value", "unit",
                "samples", "base");
  }
  for (const auto& m : metrics) {
    std::printf("  %-30s %16.6g  %-10s %7zu  %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples, m.base.c_str());
  }
}

void print_json(bool correct, std::size_t attempted, std::size_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

[[noreturn]] void usage(const char* problem) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload "
               "<gpt_train_1r|gpt_train_z2d2|gpt_decode|fc4d_x2z2> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke]\n",
               problem);
  std::exit(2);
}

Config parse(int argc, char** argv) {
  Config c;
  bool have[4] = {};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      c.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      c.name = value;
      have[0] = true;
    } else if (arg == "--seed") {
      c.seed = std::strtoull(value.c_str(), &end, 10);
      have[1] = *end == '\0' && !value.empty();
    } else if (arg == "--seconds") {
      c.seconds = std::strtod(value.c_str(), &end);
      have[2] = *end == '\0' && c.seconds > 0 && c.seconds <= 600;
    } else if (arg == "--trace") {
      c.trace = value == "1";
      have[3] = value == "0" || value == "1";
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3])) {
    usage("--workload, --seed, --seconds and --trace are required and valid");
  }
  const std::map<std::string, Workload> names = {
      {"gpt_train_1r", Workload::kTrain1r},
      {"gpt_train_z2d2", Workload::kTrainZ2d2},
      {"gpt_decode", Workload::kDecode},
      {"fc4d_x2z2", Workload::kFc4d}};
  const auto it = names.find(c.name);
  if (it == names.end()) usage(("unknown workload " + c.name).c_str());
  c.workload = it->second;
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  for (char** e = environ; *e; ++e) {
    if (std::strncmp(*e, "AXONN_", 6) == 0) {
      std::fprintf(stderr,
                   "bench_e2e: refusing to run with %s set; the benchmark "
                   "measures library defaults\n",
                   *e);
      return 2;
    }
  }
  const Config config = parse(argc, argv);

  Run run;
  run.config = config;
  run.shape = shape_of(config);
  run.ranks = int(run.shape.grid.total());
  if (config.trace) {
    const double half = config.seconds / 2;
    run.windows.push_back(std::make_unique<Window>(run.ranks, half, false));
    run.windows.push_back(std::make_unique<Window>(run.ranks, half, true));
  } else {
    run.windows.push_back(
        std::make_unique<Window>(run.ranks, config.seconds, false));
  }
  if (config.workload == Workload::kFc4d) {
    const Shape& s = run.shape;
    Rng rng(mix(config.seed, 3, 0));
    run.mlp_inputs = Matrix::randn(s.mlp_rows, s.mlp_dims.front(), rng);
    run.mlp_targets = Matrix::randn(s.mlp_rows, s.mlp_dims.back(), rng);
    run.mlp_blocks.resize(std::size_t(run.ranks));
  }

  std::printf("bench_e2e workload=%s seed=%llu seconds=%g trace=%d smoke=%d "
              "isa=%s nproc=%u ranks=%d gemm_lanes=%d\n",
              config.name.c_str(), static_cast<unsigned long long>(config.seed),
              config.seconds, int(config.trace), int(config.smoke),
              to_string(active_gemm_isa()), std::thread::hardware_concurrency(),
              run.ranks, gemm_threads());

  std::string error;
  try {
    execute(run);
    run_checks(run);
  } catch (const std::exception& e) {
    error = e.what();
  }

  std::size_t steps = 0, bad_steps = 0;
  for (const auto& window : run.windows) {
    steps += window->loop.steps();
    int worst = 0;
    for (const auto& log : window->logs) worst = std::max(worst, log.bad_steps);
    bad_steps += std::size_t(worst);
  }
  const std::size_t attempted = std::max<std::size_t>(
      1, steps + std::size_t(run.checks) + (error.empty() ? 0 : 1));
  const std::size_t failed =
      bad_steps + run.failures.size() + (error.empty() ? 0 : 1);
  const bool correct = failed == 0;
  for (const auto& f : run.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  if (!error.empty()) std::printf("ERROR: %s\n", error.c_str());

  std::vector<Metric> metrics;
  if (error.empty()) {
    if (config.trace) {
      const double calibrated = perf::calibrate_gemm_rate().sustained_gflops;
      metrics = per_layer_metrics(run, calibrated);
      std::printf("per-layer report (traced window of %zu steps):\n",
                  run.windows.back()->loop.steps());
    } else {
      metrics = end_to_end_metrics(run);
      std::printf("end-to-end report (%s times):\n",
                  run.ranks == 1 ? "reference-speed" : "wall-clock");
    }
    print_table(metrics);
    if (!config.trace) print_table(wall_clock_metrics(run), false);
  }
  std::printf("  %-30s %16.6g  %-10s %7zu  %s\n", "failed_frac",
              double(failed) / double(attempted), "ratio", attempted,
              "attempted steps and checks");
  print_json(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}
