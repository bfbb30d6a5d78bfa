#include "axonn/train/resilient.hpp"

#include <algorithm>
#include <filesystem>
#include <mutex>
#include <thread>

#include "axonn/base/log.hpp"
#include "axonn/base/metrics.hpp"
#include "axonn/train/elastic.hpp"

namespace axonn::train {

namespace {

/// Ceiling of the supervisor's exponential restart backoff: the doubling
/// stops here (or at restart_backoff_base, if that is larger), so a
/// hard-down dependency is retried every few seconds, not minutes.
constexpr std::uint64_t kRestartBackoffCapMs = 2000;

std::unique_ptr<comm::ChaosComm> chaos_for_world(
    const ResilientTrainConfig& config, bool first_world,
    comm::Communicator& raw) {
  if (!config.enable_chaos) return nullptr;
  comm::ChaosConfig chaos = config.chaos;
  if (!first_world) {
    // A later world (supervisor restart or elastic epoch) models the failed
    // node as replaced: the crash, the hang and the one-shot memory
    // corruption (all tied to the failed hardware) do not re-fire, but
    // latency/probabilistic chaos and the watchdog stay armed.
    chaos.crash_rank = -1;
    chaos.hang_rank = -1;
    chaos.corrupt_once_rank = -1;
  }
  return std::make_unique<comm::ChaosComm>(raw, chaos);
}

/// One disk-restart attempt: spawn the world, restore the newest fully-valid
/// checkpoint, train to total_steps, evaluate. Throws whatever a rank threw
/// (RankFailure under chaos, CommTimeoutError from the watchdog, ...).
void run_attempt(const ResilientTrainConfig& config, bool first_attempt,
                 ResilientTrainResult& result, std::mutex& result_mutex) {
  comm::run_ranks(
      static_cast<int>(config.grid.total()),
      [&](comm::Communicator& world) {
        RankTrainer trainer(config, first_attempt, world, config.grid);
        trainer.restore_from_disk();
        trainer.run({}, result, result_mutex);
      },
      world_options(config));
}

/// Satellite of the elastic work: exponential backoff with deterministic
/// jitter before a full restart, so a fleet of supervisors recovering from a
/// correlated failure does not hammer the scheduler/filesystem in lockstep.
/// base == 0 keeps the legacy immediate respawn.
void backoff_before_restart(const ResilientTrainConfig& config, int attempt,
                            ResilientTrainResult& result,
                            std::mutex& result_mutex) {
  if (config.restart_backoff_base.count() <= 0) return;
  const auto base =
      static_cast<std::uint64_t>(config.restart_backoff_base.count());
  const auto cap = std::max(base, kRestartBackoffCapMs);
  std::uint64_t raw = base;
  for (int i = 0; i < attempt && raw < cap; ++i) raw <<= 1;
  raw = std::min(raw, cap);
  // Jitter in [0.5, 1.0), a pure function of (data_seed, attempt): spreads
  // restarts across a fleet while keeping any one run reproducible.
  Rng rng(config.data_seed ^
          (0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(attempt + 1)));
  const double jitter =
      0.5 + 0.5 * static_cast<double>(rng.uniform_int(1u << 20)) /
                static_cast<double>(1u << 20);
  const auto delay_ms = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(static_cast<double>(raw) * jitter));
  AXONN_LOG_INFO << "resilient: backing off " << delay_ms
                 << " ms before restart attempt " << attempt + 2;
  std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
  if (obs::metrics::enabled()) {
    static obs::metrics::Counter waits("resilient.backoff_waits");
    static obs::metrics::Counter wait_ms("resilient.backoff_wait_ms");
    waits.add();
    wait_ms.add(static_cast<double>(delay_ms));
  }
  std::lock_guard<std::mutex> lock(result_mutex);
  ++result.backoff_waits;
  result.backoff_wait_ms += delay_ms;
}

}  // namespace

comm::WorldOptions world_options(const ResilientTrainConfig& config) {
  comm::WorldOptions options;
  options.collective_timeout = config.collective_timeout;
  options.ring_crc = config.ring_crc;
  options.crc_max_retries = config.crc_max_retries;
  return options;
}

// ---------------------------------------------------------------------------
// RankTrainer: the per-rank loop both drivers run
// ---------------------------------------------------------------------------

RankTrainer::RankTrainer(const ResilientTrainConfig& config, bool first_world,
                         comm::Communicator& raw,
                         const sim::GridShape& shape)
    : config_(config),
      chaos_(chaos_for_world(config, first_world, raw)),
      comm_(chaos_ ? *chaos_ : raw),
      grid_(comm_, shape),
      rank(raw.rank()),
      world_size(raw.size()),
      model(grid_, config.model),
      adam(config.adam),
      corpus_(config.corpus),
      sentinel_(config.sentinel, comm_, model, adam),
      // Live telemetry (DESIGN.md §10): no-ops unless obs::metrics is
      // enabled (AXONN_METRICS / MetricsSession). The fold runs on the raw
      // communicator so fault injection cannot corrupt the telemetry that is
      // supposed to diagnose it — chaos-injected latency still shows up,
      // because it delays the *instrumented* step window.
      telemetry_(raw, &grid_) {
  model.register_params(adam);
  cursor.rng = Rng(config.data_seed);
}

std::string RankTrainer::checkpoint_path(std::uint64_t step) const {
  return (std::filesystem::path(config_.checkpoint_dir) /
          checkpoint_filename(step, rank))
      .string();
}

void RankTrainer::restore_from_disk() {
  // All ranks agree on the step because the scan is deterministic over the
  // same directory.
  const std::int64_t step =
      find_latest_valid_step(config_.checkpoint_dir, world_size);
  if (step < 0) return;
  load_checkpoint(checkpoint_path(static_cast<std::uint64_t>(step)), model,
                  adam, cursor, rank, world_size);
  if (rank == 0) {
    AXONN_LOG_INFO << "resilient: restored step " << step << " from "
                   << config_.checkpoint_dir;
  }
}

void RankTrainer::run(const Hooks& hooks, ResilientTrainResult& result,
                      std::mutex& result_mutex) {
  obs::StragglerMonitor stragglers(config_.straggler);
  const auto batch = static_cast<std::uint64_t>(config_.batch_per_rank);
  while (cursor.step < static_cast<std::uint64_t>(config_.total_steps)) {
    // Journal the pre-step state (weights, moments, cursor — including the
    // data RNG *before* the jitter draw) so an unhealthy step can be rolled
    // back and replayed on identical data.
    sentinel_.journal(cursor);
    telemetry_.begin_step();

    // One shared RNG draw per step jitters the document window; every rank
    // draws identically (same cursor state), then takes its own slice — the
    // data-parallel sharding.
    const std::uint64_t jitter = cursor.rng.uniform_int(1u << 16);
    std::vector<TokenSeq> sequences;
    sequences.reserve(batch);
    for (std::uint64_t b = 0; b < batch; ++b) {
      sequences.push_back(corpus_.background_doc(
          cursor.next_doc + jitter + static_cast<std::uint64_t>(rank) * batch +
          b));
    }

    model.zero_grad();
    const float loss = model.train_step(sequences);
    // Health consensus before the optimizer applies the gradients. On an
    // unhealthy verdict (kHeal) the sentinel restored the journal snapshot —
    // including `cursor` — so the loop replays this step.
    if (!sentinel_.check_step(loss, cursor)) {
      if (rank == 0) {
        std::lock_guard<std::mutex> lock(result_mutex);
        ++result.step_replays;
      }
      continue;
    }
    adam.step();

    cursor.step += 1;
    cursor.next_doc += static_cast<std::uint64_t>(world_size) * batch;
    if (rank == 0) {
      std::lock_guard<std::mutex> lock(result_mutex);
      ++result.steps_executed;
      AXONN_LOG_DEBUG << "resilient: step " << cursor.step << " loss "
                      << loss;
    }
    if (hooks.after_step) hooks.after_step();

    // Healthy step: fold the cross-rank telemetry (collective; gated on the
    // process-global metrics flag, so all ranks agree).
    if (telemetry_.active()) {
      const obs::StepTelemetry t = telemetry_.end_step(cursor.step, loss);
      if (rank == 0) {
        obs::emit_step(t);
        const std::vector<int> newly = stragglers.observe(t);
        std::lock_guard<std::mutex> lock(result_mutex);
        ++result.telemetry_steps;
        result.straggler_ranks.insert(result.straggler_ranks.end(),
                                      newly.begin(), newly.end());
      }
    }

    if (config_.checkpoint_every > 0 &&
        cursor.step % static_cast<std::uint64_t>(config_.checkpoint_every) ==
            0) {
      if (hooks.at_checkpoint) hooks.at_checkpoint();
      save_checkpoint(checkpoint_path(cursor.step), model, adam, cursor, rank,
                      world_size);
      std::lock_guard<std::mutex> lock(result_mutex);
      ++result.checkpoints_written;
    }
  }

  // Fixed eval batch (independent of the cursor) so the final loss is
  // comparable across faulted, recovered and fault-free runs.
  std::vector<TokenSeq> eval_batch;
  for (std::uint64_t b = 0; b < batch; ++b) {
    eval_batch.push_back(corpus_.background_doc(
        1'000'000 + static_cast<std::uint64_t>(rank) * batch + b));
  }
  const float eval_loss = model.evaluate_loss(eval_batch);
  if (rank == 0) {
    std::lock_guard<std::mutex> lock(result_mutex);
    result.final_loss = eval_loss;
    result.final_world_size = world_size;
  }
}

ResilientTrainResult run_resilient_training(
    const ResilientTrainConfig& config) {
  AXONN_CHECK_MSG(config.grid.gx == 1 && config.grid.gy == 1,
                  "GPTModel supports Z x data grids only");
  AXONN_CHECK_MSG(!config.checkpoint_dir.empty(),
                  "resilient training needs a checkpoint directory");
  if (config.elastic.enabled) {
    AXONN_CHECK_MSG(config.grid.gdata == 1,
                    "elastic mode re-shards over the Z dimension and "
                    "requires gdata == 1");
    AXONN_CHECK_MSG(config.elastic.spares >= 0 && config.elastic.min_ranks >= 1,
                    "elastic needs spares >= 0 and min_ranks >= 1");
  }
  std::filesystem::create_directories(config.checkpoint_dir);

  ResilientTrainResult result;
  std::mutex result_mutex;
  const auto attempt_once =
      config.elastic.enabled ? run_elastic_attempt : run_attempt;

  for (int attempt = 0;; ++attempt) {
    try {
      attempt_once(config, attempt == 0, result, result_mutex);
      return result;
    } catch (const std::exception& e) {
      if (attempt >= config.max_restarts) {
        AXONN_LOG_ERROR << "resilient: restart budget exhausted after "
                        << attempt + 1 << " attempts: " << e.what();
        throw;
      }
      ++result.restarts;
      AXONN_LOG_WARN << "resilient: attempt " << attempt + 1 << " failed ("
                     << e.what() << ") — restarting from latest checkpoint";
      backoff_before_restart(config, attempt, result, result_mutex);
    }
  }
}

}  // namespace axonn::train
