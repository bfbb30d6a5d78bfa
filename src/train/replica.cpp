#include "axonn/train/replica.hpp"

#include <algorithm>

#include "axonn/base/error.hpp"
#include "axonn/base/partition.hpp"

namespace axonn::train {

ReplicaStore::ReplicaStore(int slots) { reset(slots); }

int ReplicaStore::slots() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(history_.size());
}

void ReplicaStore::reset(int slots) {
  AXONN_CHECK_MSG(slots >= 1, "ReplicaStore needs at least one slot");
  std::lock_guard<std::mutex> lock(mutex_);
  history_.assign(static_cast<std::size_t>(slots), {});
}

void ReplicaStore::push(int slot, std::uint64_t step,
                        std::vector<std::byte> blob) {
  std::lock_guard<std::mutex> lock(mutex_);
  AXONN_CHECK(slot >= 0 && slot < static_cast<int>(history_.size()));
  const mem::ArenaScope scope(mem::Tag::kJournal);
  auto& h = history_[static_cast<std::size_t>(slot)];
  if (!h.empty() && h.back().step == step) {
    // Re-push of the same step: replace.
    h.back().bytes.assign(blob.begin(), blob.end());
  } else {
    h.push_back({step, {blob.begin(), blob.end()}});
    while (h.size() > 2) h.pop_front();
  }
  ++pushes_;
}

std::optional<std::uint64_t> ReplicaStore::common_step() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::optional<std::uint64_t> common;
  for (const auto& h : history_) {
    if (h.empty()) return std::nullopt;
    const std::uint64_t newest = h.back().step;
    common = common ? std::min(*common, newest) : newest;
  }
  for (const auto& h : history_) {
    const bool holds = std::any_of(h.begin(), h.end(), [&](const Entry& e) {
      return e.step == *common;
    });
    if (!holds) return std::nullopt;  // more than one push wave torn
  }
  return common;
}

bool ReplicaStore::has(int slot, std::uint64_t step) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (slot < 0 || slot >= static_cast<int>(history_.size())) return false;
  const auto& h = history_[static_cast<std::size_t>(slot)];
  return std::any_of(h.begin(), h.end(),
                     [&](const Entry& e) { return e.step == step; });
}

std::vector<std::byte> ReplicaStore::blob(int slot, std::uint64_t step) const {
  std::lock_guard<std::mutex> lock(mutex_);
  AXONN_CHECK(slot >= 0 && slot < static_cast<int>(history_.size()));
  const auto& h = history_[static_cast<std::size_t>(slot)];
  for (const Entry& e : h) {
    if (e.step == step) return {e.bytes.begin(), e.bytes.end()};
  }
  throw CheckpointError("replica store holds no blob for slot " +
                        std::to_string(slot) + " at step " +
                        std::to_string(step));
}

std::uint64_t ReplicaStore::pushes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pushes_;
}

// ---------------------------------------------------------------------------
// Shrink restore
// ---------------------------------------------------------------------------

void reshard_restore(const std::vector<std::vector<std::byte>>& old_blobs,
                     GPTModel& model, Adam& adam, TrainCursor& cursor,
                     int new_rank, int new_world) {
  const int old_world = static_cast<int>(old_blobs.size());
  AXONN_CHECK_MSG(old_world >= 1, "reshard_restore needs at least one blob");
  AXONN_CHECK(new_world >= 1 && new_rank >= 0 && new_rank < new_world);

  std::vector<CheckpointReader> readers;
  readers.reserve(static_cast<std::size_t>(old_world));
  for (const auto& blob : old_blobs) {
    readers.emplace_back(std::span<const std::byte>(blob));
  }
  for (int s = 0; s < old_world; ++s) {
    const SnapshotMeta meta =
        read_snapshot_meta(readers[static_cast<std::size_t>(s)]);
    if (meta.rank != static_cast<std::uint32_t>(s) ||
        meta.world_size != static_cast<std::uint32_t>(old_world)) {
      throw CheckpointError(
          "reshard_restore: blob " + std::to_string(s) + " was written by " +
          std::to_string(meta.rank) + "/" + std::to_string(meta.world_size) +
          ", expected " + std::to_string(s) + "/" + std::to_string(old_world));
    }
  }

  const std::vector<GPTModel::ParamSpec> specs = model.parameter_specs();
  std::vector<Matrix*> params;
  model.for_each_parameter([&](Matrix& m) { params.push_back(&m); });
  AXONN_CHECK(params.size() == specs.size());
  AXONN_CHECK(adam.num_params() == specs.size());

  // One cursor per old slot per stream, advanced over the specs in lockstep
  // (every slot serialized the same parameter sequence).
  std::vector<ByteReader> w_in, m_in, v_in;
  for (int s = 0; s < old_world; ++s) {
    const auto& r = readers[static_cast<std::size_t>(s)];
    w_in.emplace_back(r.section("weights"));
    m_in.emplace_back(r.section("adam.m"));
    v_in.emplace_back(r.section("adam.v"));
  }

  std::vector<float> scratch;
  const auto restore_param = [&](std::vector<ByteReader>& stream,
                                 const GPTModel::ParamSpec& spec,
                                 std::span<float> dst) {
    if (!spec.z_sharded) {
      // Replicated: every old slot stored an identical full copy — take
      // slot 0's, drain the rest to keep the streams aligned.
      const std::size_t n = spec.full_rows * spec.cols;
      if (dst.size() != n) {
        throw CheckpointError("reshard_restore: replicated tensor shape "
                              "mismatch with the live model");
      }
      stream[0].get_floats(dst);
      scratch.resize(n);
      for (int s = 1; s < old_world; ++s) {
        stream[static_cast<std::size_t>(s)].get_floats(scratch);
      }
      return;
    }
    // Z-sharded: reassemble the full tensor from the old row chunks, then
    // cut this rank's new chunk. Row ownership on both sides follows
    // chunk_range, so the assembly is exact (no interpolation, bit-identical
    // data movement).
    std::vector<float> full(spec.full_rows * spec.cols);
    for (int s = 0; s < old_world; ++s) {
      const Range rows = chunk_range(spec.full_rows,
                                     static_cast<std::size_t>(old_world),
                                     static_cast<std::size_t>(s));
      stream[static_cast<std::size_t>(s)].get_floats(
          std::span<float>(full.data() + rows.begin * spec.cols,
                           rows.size() * spec.cols));
    }
    const Range mine = chunk_range(spec.full_rows,
                                   static_cast<std::size_t>(new_world),
                                   static_cast<std::size_t>(new_rank));
    if (dst.size() != mine.size() * spec.cols) {
      throw CheckpointError("reshard_restore: re-cut shard shape mismatch "
                            "with the live model");
    }
    std::copy_n(full.data() + mine.begin * spec.cols, dst.size(),
                dst.begin());
  };

  for (std::size_t i = 0; i < specs.size(); ++i) {
    restore_param(w_in, specs[i], params[i]->storage());
    restore_param(m_in, specs[i], adam.moment1(i).storage());
    restore_param(v_in, specs[i], adam.moment2(i).storage());
  }
  for (int s = 0; s < old_world; ++s) {
    if (w_in[static_cast<std::size_t>(s)].remaining() != 0 ||
        m_in[static_cast<std::size_t>(s)].remaining() != 0 ||
        v_in[static_cast<std::size_t>(s)].remaining() != 0) {
      throw CheckpointError("reshard_restore: blob " + std::to_string(s) +
                            " has trailing tensor bytes (layout mismatch)");
    }
  }

  read_step_state(readers[0], adam, cursor);
}

}  // namespace axonn::train
