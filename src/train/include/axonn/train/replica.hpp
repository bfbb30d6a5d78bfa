#pragma once

// Peer-replicated in-memory checkpoints (DESIGN.md §11).
//
// Disk checkpoints bound the blast radius of a failure to `checkpoint_every`
// steps — but only if the filesystem cooperates. At the paper's scale the
// parallel filesystem is itself a failure domain (stale snapshot, lost
// files), so the elastic layer adds a second, storage-free tier: every
// `checkpoint_every` steps each active slot pushes its CRC-framed snapshot
// (the encode_train_snapshot image it also writes to disk) to a buddy
// slot's memory. Recovery then restores from RAM: every rank of the new
// world cuts its state out of all slots' blobs with reshard_restore — after
// a spare swap that cut is exactly its slot's own blob, after a shrink it
// re-shards — with no disk read on the recovery path at all.
//
// The store keeps a two-deep history per slot, and recovery rolls back to
// the oldest step the dead slots' own histories hold (`recovery_step`).
// Each slot pushes step s before its first collective of the next step, so
// a dead slot's newest push proves every survivor already pushed the dead
// slot's older entry, and no survivor can have finished a later step
// without the dead slot — the step depends only on where the crash sits in
// the dead slot's own collective sequence, never on push arrival order.
//
// A slot's replica survives the failure iff someone still holding its bytes
// is alive: the slot's own occupant (local copy) or its buddy, slot
// (slot + 1) % slots (pushed copy). Both dead => the replica is lost and
// recovery falls back to the supervisor's disk-checkpoint full restart —
// the "lost checkpoint replica" row of the fault-model table.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <vector>

#include "axonn/base/arena.hpp"
#include "axonn/train/adam.hpp"
#include "axonn/train/checkpoint.hpp"
#include "axonn/train/gpt_model.hpp"

namespace axonn::train {

/// Thread-safe per-slot snapshot-blob store shared by the rank threads of
/// one elastic run (the in-process stand-in for buddy ranks' RAM).
class ReplicaStore {
 public:
  explicit ReplicaStore(int slots);

  /// The buddy (holder) of `slot`'s pushed copy.
  static int buddy_slot(int slot, int slots) {
    return (slot + 1) % slots;
  }

  /// Drops all history and resizes to `slots` (used when the world shrinks:
  /// old-gz blobs cannot seed a new-gz buddy scheme).
  void reset(int slots);

  /// Stores a copy of `blob` as slot `slot`'s snapshot at `step`, keeping at
  /// most the two newest steps per slot.
  void push(int slot, std::uint64_t step, std::span<const std::byte> blob);

  /// The recovery step after `dead_slots` failed: the minimum over the dead
  /// slots of each one's older history entry (its only entry if it has
  /// one). Throws CheckpointError if a dead slot never pushed or some slot
  /// does not hold that step — the caller falls back to a disk restart.
  std::uint64_t recovery_step(const std::vector<int>& dead_slots) const;

  /// Copy of slot `slot`'s blob at `step`; throws CheckpointError if absent.
  std::vector<std::byte> blob(int slot, std::uint64_t step) const;

 private:
  struct Entry {
    std::uint64_t step = 0;
    // Retained replica blobs are the only checkpoint bytes that stay
    // resident, so they are charged to the journal arena tag; the transient
    // image and restore copies are not.
    mem::TrackedVector<std::byte> bytes;
  };

  mutable std::mutex mutex_;
  std::vector<std::deque<Entry>> history_;  ///< per slot, newest last
};

/// Rebuilds this rank's live state for a `new_world`-way grid from the full
/// set of `old_blobs.size()`-way snapshot blobs taken at one step — the
/// elastic restore after a spare swap (same world size: the cut is the old
/// slot's own shard) or a shrink. Replicated tensors are taken from old
/// slot 0; Z-sharded tensors (per GPTModel::parameter_specs()) are
/// reassembled from every old slot's row chunk and re-cut for new rank
/// `new_rank`. Adam step count and the cursor come from old slot 0 (the
/// cursor is identical across ranks; the corpus re-partitions
/// deterministically because document assignment is a pure function of
/// cursor, rank and world size).
void reshard_restore(const std::vector<std::vector<std::byte>>& old_blobs,
                     GPTModel& model, Adam& adam, TrainCursor& cursor,
                     int new_rank, int new_world);

}  // namespace axonn::train
