#include "axonn/train/checkpoint.hpp"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <utility>

#include "axonn/base/crc32.hpp"
#include "axonn/base/log.hpp"

namespace axonn::train {

namespace {

constexpr char kMagic[4] = {'A', 'X', 'C', 'K'};

}  // namespace

// ---------------------------------------------------------------------------
// ByteWriter / ByteReader
// ---------------------------------------------------------------------------

void ByteWriter::put_raw(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::byte*>(data);
  bytes_.insert(bytes_.end(), bytes, bytes + size);
}

void ByteReader::get_raw(void* out, std::size_t size) {
  if (pos_ + size > bytes_.size()) {
    throw CheckpointError("checkpoint payload truncated: need " +
                          std::to_string(size) + " bytes, have " +
                          std::to_string(bytes_.size() - pos_));
  }
  std::memcpy(out, bytes_.data() + pos_, size);
  pos_ += size;
}

std::uint32_t ByteReader::get_u32() {
  std::uint32_t v;
  get_raw(&v, sizeof(v));
  return v;
}

std::uint64_t ByteReader::get_u64() {
  std::uint64_t v;
  get_raw(&v, sizeof(v));
  return v;
}

std::int64_t ByteReader::get_i64() {
  std::int64_t v;
  get_raw(&v, sizeof(v));
  return v;
}

void ByteReader::get_floats(std::span<float> out) {
  get_raw(out.data(), out.size_bytes());
}

void ByteReader::get_bytes(std::span<std::byte> out) {
  get_raw(out.data(), out.size_bytes());
}

// ---------------------------------------------------------------------------
// CheckpointWriter / CheckpointReader
// ---------------------------------------------------------------------------

void CheckpointWriter::add_section(const std::string& name,
                                   std::vector<std::byte> payload) {
  sections_.emplace_back(name, std::move(payload));
}

std::vector<std::byte> CheckpointWriter::to_bytes() const {
  ByteWriter out;
  out.put_bytes(std::as_bytes(std::span<const char>(kMagic, sizeof(kMagic))));
  out.put_u32(kCheckpointVersion);
  out.put_u32(static_cast<std::uint32_t>(sections_.size()));
  for (const auto& [name, payload] : sections_) {
    out.put_u32(static_cast<std::uint32_t>(name.size()));
    out.put_bytes(
        std::as_bytes(std::span<const char>(name.data(), name.size())));
    out.put_u64(payload.size());
    out.put_u32(crc32(payload.data(), payload.size()));
    out.put_bytes(payload);
  }
  return out.take();
}

void write_checkpoint_file(const std::string& path,
                           std::span<const std::byte> image) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw CheckpointError("cannot open checkpoint file for writing: " + tmp);
    }
    out.write(reinterpret_cast<const char*>(image.data()),
              static_cast<std::streamsize>(image.size()));
    out.flush();
    if (!out) throw CheckpointError("short write to " + tmp);
  }
  // The rename is the commit point: the final name only ever refers to a
  // complete file.
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    throw CheckpointError("cannot rename " + tmp + " -> " + path + ": " +
                          ec.message());
  }
}

CheckpointReader::CheckpointReader(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw CheckpointError("cannot open checkpoint: " + path);
  std::vector<std::byte> bytes;
  in.seekg(0, std::ios::end);
  bytes.resize(static_cast<std::size_t>(in.tellg()));
  in.seekg(0, std::ios::beg);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (!in) throw CheckpointError("cannot read checkpoint: " + path);
  parse(bytes, path);
}

CheckpointReader::CheckpointReader(std::span<const std::byte> bytes) {
  parse(bytes, "<in-memory image>");
}

void CheckpointReader::parse(std::span<const std::byte> bytes,
                             const std::string& origin) {
  ByteReader reader(bytes);
  char magic[4];
  reader.get_bytes(std::as_writable_bytes(std::span<char>(magic, 4)));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw CheckpointError("bad checkpoint magic in " + origin);
  }
  const std::uint32_t version = reader.get_u32();
  if (version != kCheckpointVersion) {
    throw CheckpointError("unsupported checkpoint version " +
                          std::to_string(version) + " in " + origin +
                          " (expected " + std::to_string(kCheckpointVersion) +
                          ")");
  }
  // The CRCs cover payloads only, so a length field is checked against the
  // bytes left before it sizes an allocation: a flipped high bit must read
  // as a torn file, not as a multi-GiB (or failing) allocation.
  const auto checked_len = [&](std::uint64_t len) {
    if (len > reader.remaining()) {
      throw CheckpointError("checkpoint length field " + std::to_string(len) +
                            " overruns " + origin);
    }
    return static_cast<std::size_t>(len);
  };
  const std::uint32_t count = reader.get_u32();
  for (std::uint32_t s = 0; s < count; ++s) {
    std::string name(checked_len(reader.get_u32()), '\0');
    reader.get_bytes(
        std::as_writable_bytes(std::span<char>(name.data(), name.size())));
    const std::uint64_t payload_len = reader.get_u64();
    const std::uint32_t expected_crc = reader.get_u32();
    std::vector<std::byte> payload(checked_len(payload_len));
    reader.get_bytes(payload);
    const std::uint32_t actual_crc = crc32(payload.data(), payload.size());
    if (actual_crc != expected_crc) {
      throw CheckpointError("CRC mismatch in section \"" + name + "\" of " +
                            origin);
    }
    sections_[name] = std::move(payload);
  }
}

std::span<const std::byte> CheckpointReader::section(
    const std::string& name) const {
  auto it = sections_.find(name);
  if (it == sections_.end()) {
    throw CheckpointError("checkpoint missing section \"" + name + "\"");
  }
  return it->second;
}

// ---------------------------------------------------------------------------
// Training-loop snapshot
// ---------------------------------------------------------------------------

std::vector<std::byte> encode_train_snapshot(GPTModel& model, Adam& adam,
                                             const TrainCursor& cursor,
                                             int rank, int world_size) {
  CheckpointWriter ckpt;

  {
    ByteWriter meta;
    meta.put_u32(static_cast<std::uint32_t>(rank));
    meta.put_u32(static_cast<std::uint32_t>(world_size));
    meta.put_u64(adam.num_params());
    meta.put_u64(adam.total_parameter_count());
    ckpt.add_section("meta", meta.take());
  }

  {
    ByteWriter weights;
    model.for_each_parameter(
        [&](Matrix& m) { weights.put_floats(m.storage()); });
    ckpt.add_section("weights", weights.take());
  }

  {
    ByteWriter m_writer, v_writer;
    for (std::size_t i = 0; i < adam.num_params(); ++i) {
      m_writer.put_floats(adam.moment1(i).storage());
      v_writer.put_floats(adam.moment2(i).storage());
    }
    ckpt.add_section("adam.m", m_writer.take());
    ckpt.add_section("adam.v", v_writer.take());

    ByteWriter t_writer;
    t_writer.put_i64(adam.step_count());
    ckpt.add_section("adam.t", t_writer.take());
  }

  {
    ByteWriter cur;
    cur.put_u64(cursor.step);
    cur.put_u64(cursor.next_doc);
    for (const std::uint64_t word : cursor.rng.state()) cur.put_u64(word);
    ckpt.add_section("cursor", cur.take());
  }

  return ckpt.to_bytes();
}

void load_checkpoint(const std::string& path, GPTModel& model, Adam& adam,
                     TrainCursor& cursor, int rank, int world_size) {
  const CheckpointReader ckpt(path);
  const SnapshotMeta meta =
      read_snapshot_meta(ckpt, rank, world_size, "checkpoint " + path);
  if (meta.param_slots != adam.num_params() ||
      meta.param_scalars != adam.total_parameter_count()) {
    throw CheckpointError("checkpoint " + path +
                          " parameter layout does not match the live model");
  }

  {
    ByteReader weights(ckpt.section("weights"));
    model.for_each_parameter(
        [&](Matrix& m) { weights.get_floats(m.storage()); });
    if (weights.remaining() != 0) {
      throw CheckpointError("checkpoint weights section has " +
                            std::to_string(weights.remaining()) +
                            " trailing bytes");
    }
  }

  {
    ByteReader m_reader(ckpt.section("adam.m"));
    ByteReader v_reader(ckpt.section("adam.v"));
    for (std::size_t i = 0; i < adam.num_params(); ++i) {
      m_reader.get_floats(adam.moment1(i).storage());
      v_reader.get_floats(adam.moment2(i).storage());
    }
    if (m_reader.remaining() != 0 || v_reader.remaining() != 0) {
      throw CheckpointError("checkpoint optimizer sections do not match the "
                            "live optimizer layout");
    }
  }

  read_step_state(ckpt, adam, cursor);
}

SnapshotMeta read_snapshot_meta(const CheckpointReader& ckpt, int rank,
                                int world_size, const std::string& origin) {
  ByteReader in(ckpt.section("meta"));
  SnapshotMeta meta;
  meta.rank = in.get_u32();
  meta.world_size = in.get_u32();
  meta.param_slots = in.get_u64();
  meta.param_scalars = in.get_u64();
  if (meta.rank != static_cast<std::uint32_t>(rank) ||
      meta.world_size != static_cast<std::uint32_t>(world_size)) {
    throw CheckpointError(origin + " was written by rank " +
                          std::to_string(meta.rank) + "/" +
                          std::to_string(meta.world_size) + ", expected " +
                          std::to_string(rank) + "/" +
                          std::to_string(world_size));
  }
  return meta;
}

void read_step_state(const CheckpointReader& ckpt, Adam& adam,
                     TrainCursor& cursor) {
  ByteReader t_reader(ckpt.section("adam.t"));
  adam.set_step_count(t_reader.get_i64());

  ByteReader cur(ckpt.section("cursor"));
  cursor.step = cur.get_u64();
  cursor.next_doc = cur.get_u64();
  std::array<std::uint64_t, 4> state;
  for (auto& word : state) word = cur.get_u64();
  cursor.rng.set_state(state);
}

std::string checkpoint_filename(std::uint64_t step, int rank) {
  std::string digits = std::to_string(step);
  if (digits.size() < 8) digits.insert(0, 8 - digits.size(), '0');
  return "ckpt-" + digits + ".r" + std::to_string(rank) + ".axck";
}

std::int64_t find_latest_valid_step(const std::string& dir, int world_size) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return -1;

  // Every step with at least one "ckpt-<digits>.r<digits>.axck" file.
  std::set<std::uint64_t> steps;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("ckpt-", 0) != 0) continue;
    const auto dot = name.find(".r");
    if (dot == std::string::npos || name.size() < dot + 2) continue;
    if (name.substr(name.size() - 5) != ".axck") continue;
    try {
      steps.insert(std::stoull(name.substr(5, dot - 5)));
    } catch (const std::exception&) {
      continue;
    }
  }

  // A step is restorable when every rank's file opens, passes its CRCs and
  // was written by that rank of a world_size-rank world: after a shrink the
  // smaller world's files can sit beside an older world's under one step.
  for (auto it = steps.rbegin(); it != steps.rend(); ++it) {
    try {
      for (int r = 0; r < world_size; ++r) {
        const std::string path =
            (fs::path(dir) / checkpoint_filename(*it, r)).string();
        read_snapshot_meta(CheckpointReader(path), r, world_size, path);
      }
      return static_cast<std::int64_t>(*it);
    } catch (const CheckpointError& e) {
      AXONN_LOG_WARN << "checkpoint step " << *it << " skipped: " << e.what();
    }
  }
  return -1;
}

}  // namespace axonn::train
