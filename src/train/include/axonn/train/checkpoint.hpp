#pragma once

// Versioned binary checkpoint/restart for the training loop.
//
// Multi-day runs at the paper's scale (§VII: up to 32,768 GCDs) survive rank
// failures only through checkpoint/restart, so the reproduction needs the
// same layer: a self-describing binary snapshot of everything the training
// loop would otherwise lose — model weights, Adam moments and step counter,
// the corpus cursor and the data-order RNG — restored bit-exactly so a
// resumed run converges to the identical loss as an uninterrupted one.
//
// File layout (host-endian; see DESIGN.md "Fault model and recovery"):
//   magic "AXCK" | u32 version | u32 section_count
//   then per section:
//   u32 name_len | name bytes | u64 payload_len | u32 crc32(payload) | payload
//
// Every section carries its own CRC32, so a torn write, truncation, or bit
// flip is detected at restore time; writes are atomic (tmp file + rename) so
// a crash mid-checkpoint can never destroy the previous good snapshot.
// Checkpoints are per-rank ("ckpt-<step>.r<rank>.axck") because with gz > 1
// each rank's FC tensors are Z-shards; a step is restorable only when every
// rank's file for it validates.

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "axonn/base/error.hpp"
#include "axonn/base/rng.hpp"
#include "axonn/train/adam.hpp"
#include "axonn/train/gpt_model.hpp"

namespace axonn::train {

/// Thrown on any restore failure: bad magic/version, CRC mismatch,
/// truncation, or state-shape mismatch with the live model/optimizer.
class CheckpointError : public Error {
 public:
  using Error::Error;
};

inline constexpr std::uint32_t kCheckpointVersion = 1;

/// Little typed append-only buffer used to build section payloads.
class ByteWriter {
 public:
  void put_u32(std::uint32_t v) { put_raw(&v, sizeof(v)); }
  void put_u64(std::uint64_t v) { put_raw(&v, sizeof(v)); }
  void put_i64(std::int64_t v) { put_raw(&v, sizeof(v)); }
  void put_floats(std::span<const float> v) {
    put_raw(v.data(), v.size_bytes());
  }
  void put_bytes(std::span<const std::byte> v) { put_raw(v.data(), v.size()); }

  std::vector<std::byte> take() { return std::move(bytes_); }

 private:
  void put_raw(const void* data, std::size_t size);
  std::vector<std::byte> bytes_;
};

/// Cursor-based reader over a section payload; throws CheckpointError on
/// over-read (truncated payload).
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> bytes) : bytes_(bytes) {}

  std::uint32_t get_u32();
  std::uint64_t get_u64();
  std::int64_t get_i64();
  void get_floats(std::span<float> out);
  void get_bytes(std::span<std::byte> out);
  std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  void get_raw(void* out, std::size_t size);
  std::span<const std::byte> bytes_;
  std::size_t pos_ = 0;
};

/// A checkpoint under construction: named CRC-protected sections, written
/// atomically.
class CheckpointWriter {
 public:
  void add_section(const std::string& name, std::vector<std::byte> payload);

  /// Serializes the checkpoint into a memory image — byte-identical to the
  /// file write() produces. This is the payload a rank pushes to its buddy's
  /// in-memory replica store (DESIGN.md §11): the CRC framing travels with
  /// the bytes, so a replica validates exactly like an on-disk file.
  std::vector<std::byte> to_bytes() const;

  /// Writes to `path` atomically: the bytes land in `path + ".tmp"` first
  /// and are renamed over `path` only once complete, so readers never see a
  /// half-written checkpoint under the final name.
  void write(const std::string& path) const;

 private:
  std::vector<std::pair<std::string, std::vector<std::byte>>> sections_;
};

/// A parsed-and-verified checkpoint. The constructors validate the magic,
/// version and every section CRC, throwing CheckpointError otherwise.
class CheckpointReader {
 public:
  explicit CheckpointReader(const std::string& path);
  /// Parses an in-memory image (CheckpointWriter::to_bytes(), or a buddy's
  /// replica blob) with identical validation.
  explicit CheckpointReader(std::span<const std::byte> bytes);

  bool has_section(const std::string& name) const;
  std::span<const std::byte> section(const std::string& name) const;

 private:
  void parse(std::span<const std::byte> bytes, const std::string& origin);

  std::map<std::string, std::vector<std::byte>> sections_;
};

/// True iff `path` parses and every section CRC validates (no state is
/// restored). Used to skip torn/corrupted files during restart.
bool validate_checkpoint(const std::string& path);

// ---------------------------------------------------------------------------
// Training-loop snapshot
// ---------------------------------------------------------------------------

/// Everything the training driver needs beyond model/optimizer state to
/// resume deterministically.
struct TrainCursor {
  std::uint64_t step = 0;      ///< steps completed
  std::uint64_t next_doc = 0;  ///< next background-document index
  Rng rng{0};                  ///< data-order RNG (uniform draws only)
};

/// Serializes model weights, Adam moments + step count, and the cursor.
void save_checkpoint(const std::string& path, GPTModel& model, Adam& adam,
                     const TrainCursor& cursor, int rank, int world_size);

/// Restores state saved by save_checkpoint into live objects; the model and
/// optimizer must already be constructed with the same architecture, rank
/// and world size. Throws CheckpointError on any mismatch.
void load_checkpoint(const std::string& path, GPTModel& model, Adam& adam,
                     TrainCursor& cursor, int rank, int world_size);

/// The in-memory twins of save/load_checkpoint: identical bytes, no file.
/// encode produces the blob a rank hands to its buddy's replica store;
/// decode restores from such a blob (validating every section CRC first).
std::vector<std::byte> encode_train_snapshot(GPTModel& model, Adam& adam,
                                             const TrainCursor& cursor,
                                             int rank, int world_size);
void decode_train_snapshot(std::span<const std::byte> bytes, GPTModel& model,
                           Adam& adam, TrainCursor& cursor, int rank,
                           int world_size);

/// A training snapshot's "meta" section: the writer's rank and world size
/// and the optimizer layout it saved.
struct SnapshotMeta {
  std::uint32_t rank = 0;
  std::uint32_t world_size = 0;
  std::uint64_t param_slots = 0;    ///< Adam::num_params()
  std::uint64_t param_scalars = 0;  ///< Adam::total_parameter_count()
};
SnapshotMeta read_snapshot_meta(const CheckpointReader& ckpt);

/// Restores the Adam step count ("adam.t") and the cursor ("cursor": step,
/// next_doc, the four RNG words) from a training snapshot.
void read_step_state(const CheckpointReader& ckpt, Adam& adam,
                     TrainCursor& cursor);

/// "ckpt-<step padded to 8>.r<rank>.axck".
std::string checkpoint_filename(std::uint64_t step, int rank);

/// Highest step for which every rank 0..world_size-1 has a file in `dir`
/// that fully validates, or -1 if none. Torn or corrupted steps are skipped
/// (logged at warn level) — the fall-back-past-a-bad-checkpoint path.
std::int64_t find_latest_valid_step(const std::string& dir, int world_size);

}  // namespace axonn::train
