// Checkpoint format: byte-level round trips, CRC detection of corruption
// and truncation, atomic writes, bit-exact model/optimizer/cursor restore,
// and find_latest_valid_step falling back past a bad newest checkpoint.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "axonn/comm/thread_comm.hpp"
#include "axonn/core/grid4d.hpp"
#include "axonn/tensor/gemm_dispatch.hpp"
#include "axonn/train/checkpoint.hpp"

namespace axonn::train {
namespace {

namespace fs = std::filesystem;

// Fresh per-test scratch directory under the gtest temp dir.
fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / ("axonn_ckpt_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<std::byte> small_payload() {
  ByteWriter w;
  w.put_u32(7);
  w.put_u64(123456789ULL);
  w.put_i64(-42);
  const std::vector<float> floats{1.0f, 2.5f, -3.0f};
  w.put_floats(floats);
  return w.take();
}

TEST(ByteIoTest, RoundTripAndOverReadThrows) {
  auto bytes = small_payload();
  ByteReader r(bytes);
  EXPECT_EQ(r.get_u32(), 7u);
  EXPECT_EQ(r.get_u64(), 123456789ULL);
  EXPECT_EQ(r.get_i64(), -42);
  std::vector<float> floats(3);
  r.get_floats(floats);
  EXPECT_EQ(floats, (std::vector<float>{1.0f, 2.5f, -3.0f}));
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_THROW(r.get_u32(), CheckpointError);
}

TEST(CheckpointFileTest, WriteReadRoundTrip) {
  const fs::path dir = scratch_dir("roundtrip");
  const std::string path = (dir / "test.axck").string();

  CheckpointWriter writer;
  writer.add_section("alpha", small_payload());
  ByteWriter bw;
  bw.put_u32(0xDEADBEEF);
  writer.add_section("beta", bw.take());
  writer.write(path);

  EXPECT_TRUE(validate_checkpoint(path));
  // The atomic-write staging file must not survive a successful commit.
  EXPECT_FALSE(fs::exists(path + ".tmp"));

  CheckpointReader reader(path);
  EXPECT_TRUE(reader.has_section("alpha"));
  EXPECT_TRUE(reader.has_section("beta"));
  EXPECT_FALSE(reader.has_section("gamma"));
  ByteReader r(reader.section("beta"));
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
}

TEST(CheckpointFileTest, CorruptionIsDetected) {
  const fs::path dir = scratch_dir("corrupt");
  const std::string path = (dir / "test.axck").string();
  CheckpointWriter writer;
  writer.add_section("alpha", small_payload());
  writer.write(path);

  // Flip one byte in the payload (last byte of the file).
  const auto size = fs::file_size(path);
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(static_cast<std::streamoff>(size) - 1);
  char byte;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x10);
  f.seekp(static_cast<std::streamoff>(size) - 1);
  f.write(&byte, 1);
  f.close();

  EXPECT_FALSE(validate_checkpoint(path));
  EXPECT_THROW(CheckpointReader reader(path), CheckpointError);
}

TEST(CheckpointFileTest, TruncationIsDetected) {
  const fs::path dir = scratch_dir("truncate");
  const std::string path = (dir / "test.axck").string();
  CheckpointWriter writer;
  writer.add_section("alpha", small_payload());
  writer.write(path);

  fs::resize_file(path, fs::file_size(path) / 2);
  EXPECT_FALSE(validate_checkpoint(path));
  EXPECT_THROW(CheckpointReader reader(path), CheckpointError);
}

TEST(CheckpointFileTest, MissingFileAndGarbageMagicRejected) {
  const fs::path dir = scratch_dir("garbage");
  EXPECT_FALSE(validate_checkpoint((dir / "nope.axck").string()));

  const std::string path = (dir / "bad.axck").string();
  std::ofstream(path, std::ios::binary) << "this is not a checkpoint";
  EXPECT_FALSE(validate_checkpoint(path));
  EXPECT_THROW(CheckpointReader reader(path), CheckpointError);
}

TEST(CheckpointFilenameTest, StepIsZeroPaddedAndRankTagged) {
  EXPECT_EQ(checkpoint_filename(0, 0), "ckpt-00000000.r0.axck");
  EXPECT_EQ(checkpoint_filename(1234, 3), "ckpt-00001234.r3.axck");
}

TinyGPTConfig ckpt_model_config(std::uint64_t seed) {
  TinyGPTConfig config;
  config.vocab = 16;
  config.max_seq = 16;
  config.layers = 1;
  config.hidden = 16;
  config.heads = 2;
  config.seed = seed;
  return config;
}

std::vector<TokenSeq> fixed_batch(std::size_t batch, std::size_t len) {
  Rng rng(77);
  std::vector<TokenSeq> out(batch);
  for (auto& seq : out) {
    seq.resize(len);
    for (auto& t : seq) t = static_cast<std::int32_t>(rng.uniform_int(16));
  }
  return out;
}

TEST(CheckpointStateTest, RestoreIsBitExact) {
  // Once per GEMM lane budget: one lane, then two. The second input's 8
  // sequences give the FC GEMMs 120 rows, two kBlockM row blocks, so both
  // lanes get work.
  struct Input {
    const char* name;
    int gemm_threads;
    std::size_t sequences;
  };
  for (const Input& input :
       {Input{"tiled_1_lane", 1, 2}, Input{"tiled_2_lanes", 2, 8}}) {
    SCOPED_TRACE(input.name);
    const fs::path dir = scratch_dir(std::string("state_") + input.name);
    const std::string path = (dir / checkpoint_filename(3, 0)).string();
    const auto batch = fixed_batch(input.sequences, 16);
    comm::WorldOptions world_options;
    world_options.gemm_threads = input.gemm_threads;

    float saved_loss = 0.0f;
    std::uint64_t saved_draw = 0;
    comm::run_ranks(
        1,
        [&](comm::Communicator& world) {
          core::Grid4D grid(world, sim::GridShape{1, 1, 1, 1});
          GPTModel model(grid, ckpt_model_config(/*seed=*/5));
          Adam adam(AdamConfig{.lr = 5e-3f});
          model.register_params(adam);
          TrainCursor cursor;
          cursor.rng = Rng(999);
          for (int step = 0; step < 3; ++step) {
            model.zero_grad();
            model.train_step(batch);
            adam.step();
            cursor.step += 1;
            cursor.next_doc += 2;
            (void)cursor.rng.uniform_int(1000);  // advance the RNG
          }
          save_checkpoint(path, model, adam, cursor, /*rank=*/0,
                          /*world_size=*/1);
          saved_loss = model.evaluate_loss(batch);
          saved_draw = cursor.rng.uniform_int(1u << 20);
        },
        world_options);

    comm::run_ranks(
        1,
        [&](comm::Communicator& world) {
          core::Grid4D grid(world, sim::GridShape{1, 1, 1, 1});
          // Different init seed: every weight starts different from the
          // saved run.
          GPTModel model(grid, ckpt_model_config(/*seed=*/31337));
          Adam adam(AdamConfig{.lr = 5e-3f});
          model.register_params(adam);
          TrainCursor cursor;
          load_checkpoint(path, model, adam, cursor, /*rank=*/0,
                          /*world_size=*/1);

          EXPECT_EQ(cursor.step, 3u);
          EXPECT_EQ(cursor.next_doc, 6u);
          EXPECT_EQ(adam.step_count(), 3);
          // Bit-exact weights => bit-identical loss; bit-exact RNG state =>
          // the next draw matches the saved run's next draw.
          EXPECT_EQ(model.evaluate_loss(batch), saved_loss);
          EXPECT_EQ(cursor.rng.uniform_int(1u << 20), saved_draw);
        },
        world_options);
    set_gemm_threads(0);  // the world knob writes the process-global budget
  }
}

TEST(CheckpointStateTest, WorldShapeMismatchRejected) {
  const fs::path dir = scratch_dir("mismatch");
  const std::string path = (dir / checkpoint_filename(0, 0)).string();
  comm::run_ranks(1, [&](comm::Communicator& world) {
    core::Grid4D grid(world, sim::GridShape{1, 1, 1, 1});
    GPTModel model(grid, ckpt_model_config(5));
    Adam adam;
    model.register_params(adam);
    TrainCursor cursor;
    save_checkpoint(path, model, adam, cursor, /*rank=*/0, /*world_size=*/1);
    // Restoring a 1-rank snapshot into a claimed 2-rank world must fail:
    // with sharded FC weights the bytes would silently be wrong otherwise.
    EXPECT_THROW(
        load_checkpoint(path, model, adam, cursor, /*rank=*/0,
                        /*world_size=*/2),
        CheckpointError);
  });
}

TEST(FindLatestValidStepTest, SkipsTornAndIncompleteSteps) {
  const fs::path dir = scratch_dir("latest");
  EXPECT_EQ(find_latest_valid_step(dir.string(), 1), -1);

  auto write_valid = [&dir](std::uint64_t step, int rank) {
    CheckpointWriter writer;
    writer.add_section("alpha", small_payload());
    writer.write((dir / checkpoint_filename(step, rank)).string());
  };

  write_valid(4, 0);
  write_valid(8, 0);
  EXPECT_EQ(find_latest_valid_step(dir.string(), 1), 8);

  // Newest step is torn: garbage bytes under a valid checkpoint name. The
  // restore path must fall back to the last fully-valid step.
  std::ofstream((dir / checkpoint_filename(12, 0)).string(), std::ios::binary)
      << "torn write";
  EXPECT_EQ(find_latest_valid_step(dir.string(), 1), 8);

  // A step missing one rank's file is incomplete, not restorable.
  write_valid(16, 0);
  EXPECT_EQ(find_latest_valid_step(dir.string(), 2), -1);
  write_valid(16, 1);
  EXPECT_EQ(find_latest_valid_step(dir.string(), 2), 16);
}

TEST(FindLatestValidStepTest, MixedValidityDirectoryFallsBackPerRankSet) {
  // A directory mixing healthy, corrupted and partially-written steps: the
  // restorable step is the newest one where *every* rank's file validates —
  // one rank's corruption poisons the whole step, not just that rank.
  const fs::path dir = scratch_dir("mixed");
  auto write_valid = [&dir](std::uint64_t step, int rank) {
    CheckpointWriter writer;
    writer.add_section("alpha", small_payload());
    writer.write((dir / checkpoint_filename(step, rank)).string());
  };

  write_valid(4, 0);
  write_valid(4, 1);
  write_valid(8, 0);
  write_valid(8, 1);
  write_valid(12, 0);
  write_valid(12, 1);
  EXPECT_EQ(find_latest_valid_step(dir.string(), 2), 12);

  // Corrupt rank 1's newest file in place (flip a payload byte): rank 0's
  // half of step 12 is fine, but the step as a whole is not restorable.
  {
    const fs::path victim = dir / checkpoint_filename(12, 1);
    std::fstream f(victim, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-1, std::ios::end);
    f.put('\xFF');
  }
  EXPECT_EQ(find_latest_valid_step(dir.string(), 2), 8);

  // A newer step with only one rank present does not change the verdict.
  write_valid(16, 0);
  EXPECT_EQ(find_latest_valid_step(dir.string(), 2), 8);

  // Completing step 16 on rank 1 makes it the newest fully-valid step even
  // though step 12 below it is still half-corrupt.
  write_valid(16, 1);
  EXPECT_EQ(find_latest_valid_step(dir.string(), 2), 16);
}

}  // namespace
}  // namespace axonn::train
