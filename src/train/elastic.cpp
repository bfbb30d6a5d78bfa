#include "axonn/train/elastic.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "axonn/base/log.hpp"
#include "axonn/base/metrics.hpp"
#include "axonn/comm/fault.hpp"
#include "axonn/comm/thread_comm.hpp"
#include "axonn/train/checkpoint.hpp"
#include "axonn/train/replica.hpp"

namespace axonn::train {

namespace {

/// The exception's what(), for the abort reason.
std::string describe(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const std::exception& ex) {
    return ex.what();
  } catch (...) {
    return "a non-std exception";
  }
}

/// State shared by every rank thread of one elastic attempt. The replica
/// store is the in-process stand-in for the survivors' RAM; whether a dead
/// slot's bytes are *usable* is decided by the buddy-liveness rule in
/// restore_from_replicas, not by physical presence here.
struct ElasticShared {
  explicit ElasticShared(int slots) : replicas(slots) {}

  ReplicaStore replicas;

  std::mutex fatal_mutex;
  std::exception_ptr fatal;

  void store_fatal(std::exception_ptr e) {
    std::lock_guard<std::mutex> lock(fatal_mutex);
    if (!fatal) fatal = std::move(e);
  }
};

/// How one epoch segment of a rank's life ended.
enum class Segment {
  kDone,         ///< training + eval completed
  kDead,         ///< this rank is the casualty (crash or detected hang)
  kReconfigure,  ///< a peer died / epoch moved on: rendezvous and retry
};

using Plan = comm::ThreadWorld::ReconfigurePlan;

/// Pushes `image`, this rank's snapshot at its current step, to its replica
/// slot.
void push_replica(ElasticShared& shared, const RankTrainer& trainer,
                  std::span<const std::byte> image,
                  ResilientTrainResult& result, std::mutex& result_mutex) {
  shared.replicas.push(trainer.rank, trainer.cursor.step, image);
  std::lock_guard<std::mutex> lock(result_mutex);
  ++result.replica_pushes;
}

/// Restores this rank's state at the start of a post-failure epoch from the
/// in-memory replicas, and counts the recovery. Swapped-in spares, survivors
/// and the ranks of a shrunk world alike cut their state out of every old
/// slot's blob with reshard_restore; at an unchanged world size that cut is
/// the slot's own blob. Throws CheckpointError when the replica tier cannot
/// serve the recovery — the caller escalates to the supervisor's disk
/// restart.
void restore_from_replicas(const Plan& plan, ElasticShared& shared,
                           comm::ThreadComm& active, RankTrainer& trainer,
                           ResilientTrainResult& result,
                           std::mutex& result_mutex) {
  const int slot = active.rank();
  const int nslots = active.size();
  const int old_n = static_cast<int>(plan.old_active.size());

  // Buddy rule: a dead slot's replica is usable only if someone who held its
  // bytes survived — the slot's occupant (dead by definition) or the buddy
  // it pushed to. Occupant and buddy both dead => the replica died with
  // them, even though this in-process store still has the bytes.
  for (const int dead : plan.dead_slots) {
    const int buddy = ReplicaStore::buddy_slot(dead, old_n);
    if (std::find(plan.dead_slots.begin(), plan.dead_slots.end(), buddy) !=
        plan.dead_slots.end()) {
      throw CheckpointError(
          "elastic: slot " + std::to_string(dead) +
          "'s in-memory replica was lost (occupant and buddy slot " +
          std::to_string(buddy) + " both failed) — escalating to a disk "
          "restart");
    }
  }

  const std::uint64_t step = shared.replicas.recovery_step(plan.dead_slots);
  std::vector<std::vector<std::byte>> blobs;
  blobs.reserve(static_cast<std::size_t>(old_n));
  for (int s = 0; s < old_n; ++s) {
    blobs.push_back(shared.replicas.blob(s, step));
  }
  reshard_restore(blobs, trainer.model, trainer.adam, trainer.cursor, slot,
                  nslots);
  if (plan.shrunk) {
    // The old-gz blobs cannot seed the new-gz buddy scheme: barrier until
    // every survivor has read its inputs, reset the store to the new slot
    // count, then re-seed it with fresh snapshots so a second failure can
    // still recover from RAM.
    active.barrier();
    if (slot == 0) shared.replicas.reset(nslots);
    active.barrier();
    push_replica(shared, trainer, trainer.snapshot_image(), result,
                 result_mutex);
  }

  std::lock_guard<std::mutex> lock(result_mutex);
  ++result.replica_restores;
  if (slot != 0) return;
  ++result.epoch_bumps;
  if (plan.shrunk) {
    ++result.shrinks;
  } else {
    result.spare_swaps += static_cast<std::uint64_t>(plan.swapped_in.size());
  }
  AXONN_LOG_INFO << "elastic: epoch " << plan.epoch
                 << " resumed from in-memory replicas at step "
                 << trainer.cursor.step
                 << (plan.shrunk ? " (shrunk to " : " (world ") << nslots
                 << " ranks)";
}

/// Closes the failure→recovery window at the first completed post-recovery
/// step, when the world is productive again (the elastic MTTR bench_recovery
/// compares against a full restart).
void record_mttr(const comm::ThreadWorld& world, ResilientTrainResult& result,
                 std::mutex& result_mutex) {
  if (world.last_failure_ns() <= 0) return;
  const std::int64_t now_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  const double mttr_ms =
      static_cast<double>(now_ns - world.last_failure_ns()) / 1e6;
  if (obs::metrics::enabled()) {
    static obs::metrics::Gauge mttr("elastic.recovery_ms");
    mttr.set(mttr_ms);
  }
  AXONN_LOG_INFO << "elastic: first post-recovery step done, " << mttr_ms
                 << " ms after the failure";
  std::lock_guard<std::mutex> lock(result_mutex);
  if (result.recovery_ms < 0) result.recovery_ms = mttr_ms;
}

/// One epoch of one rank's life: build the training stack on the active
/// communicator, restore (disk at epoch 0, replicas afterwards), and run the
/// shared loop with the replica tier and the MTTR clock hooked in. The
/// progress stream is drained while the stack is still alive — queued
/// collective tasks reference it, so they must run down before the
/// destructors.
Segment run_epoch_segment(const ResilientTrainConfig& config,
                          bool first_attempt, comm::ThreadWorld& world, int my,
                          const std::optional<Plan>& plan,
                          ElasticShared& shared, ResilientTrainResult& result,
                          std::mutex& result_mutex) {
  Segment outcome = Segment::kReconfigure;
  std::exception_ptr fatal;
  {
    std::unique_ptr<comm::ThreadComm> active = world.active_comm(my);
    std::optional<RankTrainer> trainer;
    try {
      const std::uint64_t epoch = active->epoch();
      const int slot = active->rank();
      const int nslots = active->size();

      // Chaos wraps the *active* communicator, so the crash/hang/slow rank
      // of the schedule is a grid slot (stable across spare swaps), and the
      // counters restart with each epoch like a fresh-booted replacement.
      sim::GridShape shape = config.grid;
      shape.gz = nslots;  // a shrunk epoch keeps pure Z-sharding
      trainer.emplace(config, first_attempt && epoch == 0, *active, shape);

      bool just_recovered = false;
      if (epoch == 0) {
        trainer->restore_from_disk();
        // Baseline replica push: from the very first step every slot's
        // snapshot lives in a buddy's RAM, so the first failure can already
        // recover without touching disk.
        push_replica(shared, *trainer, trainer->snapshot_image(), result,
                     result_mutex);
      } else {
        AXONN_CHECK(plan && plan->epoch == epoch);
        restore_from_replicas(*plan, shared, *active, *trainer, result,
                              result_mutex);
        just_recovered = true;
      }

      RankTrainer::Hooks hooks;
      hooks.after_step = [&] {
        if (!just_recovered) return;
        just_recovered = false;
        if (slot == 0) record_mttr(world, result, result_mutex);
      };
      // RAM tier first (the recovery path); the loop then writes the same
      // image to the disk tier (the full-restart fallback).
      hooks.at_checkpoint = [&](std::span<const std::byte> image) {
        push_replica(shared, *trainer, image, result, result_mutex);
      };
      trainer->run(hooks, result, result_mutex);
      outcome = Segment::kDone;
    } catch (const comm::RankFailure& e) {
      // This rank is the casualty (injected crash, or a hang whose peers
      // fenced it off). Announce the death — that is the failure broadcast
      // that unblocks the survivors — and unwind.
      world.declare_dead(my, e.what());
      outcome = Segment::kDead;
    } catch (const comm::RankDeadError& e) {
      AXONN_LOG_INFO << "elastic: rank " << my
                     << " abandoning the epoch: " << e.what();
      outcome = Segment::kReconfigure;
    } catch (const comm::EpochFencedError& e) {
      AXONN_LOG_INFO << "elastic: rank " << my
                     << " fenced out of a stale epoch: " << e.what();
      outcome = Segment::kReconfigure;
    } catch (...) {
      // Unrecoverable in-job (lost replica, SDC escalation, watchdog, ...):
      // abort the world *before* draining so every rank's pending work
      // fails fast, then hand the exception to the supervisor.
      fatal = std::current_exception();
      world.abort("elastic: rank " + std::to_string(my) +
                  " failed unrecoverably: " + describe(fatal));
    }
    world.drain_progress(my);
  }
  if (fatal) std::rethrow_exception(fatal);
  return outcome;
}

/// A rank's whole life across epochs: spares park until assigned, actives
/// run epoch segments and rendezvous in reconfigure() after each failure.
void elastic_rank_main(const ResilientTrainConfig& config, bool first_attempt,
                       comm::ThreadWorld& world, int my,
                       ElasticShared& shared, ResilientTrainResult& result,
                       std::mutex& result_mutex) {
  try {
    std::optional<Plan> plan;
    if (world.rank_state(my) == comm::ThreadWorld::RankState::kSpare) {
      plan = world.park_for_assignment(my);
      if (!plan) return;  // run finished before this spare was needed
    }
    for (;;) {
      const Segment outcome =
          run_epoch_segment(config, first_attempt, world, my, plan, shared,
                            result, result_mutex);
      if (outcome == Segment::kDone) {
        world.finish();  // wake unneeded spares so they unwind
        return;
      }
      if (outcome == Segment::kDead) return;
      plan = world.reconfigure(my);
    }
  } catch (...) {
    if (world.is_dead(my)) return;  // fenced off while recovering: exit quietly
    shared.store_fatal(std::current_exception());
    if (!world.aborted()) {
      world.abort("elastic: rank " + std::to_string(my) + ": " +
                  describe(std::current_exception()));
    }
  }
}

}  // namespace

void run_elastic_attempt(const ResilientTrainConfig& config,
                         bool first_attempt, ResilientTrainResult& result,
                         std::mutex& result_mutex) {
  const int active0 = static_cast<int>(config.grid.total());
  const int total = active0 + config.elastic.spares;

  comm::WorldOptions options = world_options(config);
  options.elastic = true;
  options.spare_ranks = config.elastic.spares;
  options.heartbeat_timeout = config.elastic.heartbeat_timeout;
  options.min_active = config.elastic.min_ranks;

  comm::ThreadWorld world(total, options);
  ElasticShared shared(active0);

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(total));
  for (int r = 0; r < total; ++r) {
    threads.emplace_back([&, r] {
      elastic_rank_main(config, first_attempt, world, r, shared, result,
                        result_mutex);
    });
  }
  for (auto& t : threads) t.join();

  if (shared.fatal) std::rethrow_exception(shared.fatal);
  if (world.aborted()) {
    throw Error(
        "elastic: world aborted with no survivor to report the failure — "
        "restarting from disk checkpoints");
  }

  std::lock_guard<std::mutex> lock(result_mutex);
  result.fenced_messages += world.fenced_messages();
}

}  // namespace axonn::train
