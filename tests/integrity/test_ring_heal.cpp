// Self-healing ring transport: CRC-stamped segments, receiver-driven NACK /
// retransmit. Detect mode surfaces a corrupted segment as a structured
// error; heal mode retransmits from the sender's retained copy and finishes
// bitwise identical to a fault-free run, at chunk sizes that straddle the
// segment boundary. Also covers the ChaosComm wire-level fault schedule
// (deterministic targeted flips addressed by collective #, edge, segment #).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <latch>
#include <memory>
#include <mutex>
#include <ostream>
#include <thread>
#include <vector>

#include "axonn/comm/chaos_comm.hpp"
#include "axonn/comm/thread_comm.hpp"
#include "axonn/integrity/integrity.hpp"

namespace axonn::comm {
namespace {

using integrity::CountersSnapshot;
using integrity::IntegrityMode;

std::vector<float> contribution(int rank, std::size_t n) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = 0.37f * static_cast<float>(rank + 1) -
           0.11f * static_cast<float>(i % 17) +
           1e-3f * static_cast<float>((static_cast<int>(i) * (rank + 3)) % 7);
  }
  return v;
}

/// The golden result: the same collective over a CRC-free, fault-free world.
std::vector<float> clean_all_reduce(int ranks, std::size_t n,
                                    std::size_t segment_elems) {
  std::vector<float> result;
  WorldOptions options;
  options.ring_segment_elems = segment_elems;
  std::mutex mutex;
  run_ranks(
      ranks,
      [&](Communicator& world) {
        std::vector<float> buffer = contribution(world.rank(), n);
        world.all_reduce(buffer, ReduceOp::kSum);
        if (world.rank() == 0) {
          std::lock_guard<std::mutex> lock(mutex);
          result = buffer;
        }
      },
      options);
  return result;
}

TEST(RingCrcTest, CleanRunsVerifyEveryMessageWithNoRetransmits) {
  WorldOptions options;
  options.ring_segment_elems = 8;
  options.ring_crc = IntegrityMode::kHeal;
  const CountersSnapshot before = integrity::counters().snapshot();
  const std::vector<float> expected = clean_all_reduce(4, 33, 8);
  run_ranks(
      4,
      [&](Communicator& world) {
        std::vector<float> buffer = contribution(world.rank(), 33);
        world.all_reduce(buffer, ReduceOp::kSum);
        EXPECT_EQ(buffer, expected);
        EXPECT_GT(world.stats().crc_checks, 0u);
        EXPECT_GT(world.stats().crc_bytes_sent, 0u);
        EXPECT_EQ(world.stats().crc_retransmits, 0u);
      },
      options);
  const CountersSnapshot after = integrity::counters().snapshot();
  EXPECT_GT(after.ring_crc_checks, before.ring_crc_checks);
  EXPECT_EQ(after.ring_retransmits, before.ring_retransmits);
  EXPECT_EQ(after.sdc_detected, before.sdc_detected);
}

TEST(RingCrcTest, CrcFramingLeavesModeledWireBytesUnchanged) {
  // crc_bytes_sent accounts for the stamps; wire_bytes_sent must stay
  // payload-only so the Eq. 1-5 comm-model cross-check stays exact.
  auto wire_bytes = [](IntegrityMode crc) {
    WorldOptions options;
    options.ring_segment_elems = 8;
    options.ring_crc = crc;
    std::atomic<std::uint64_t> bytes{0};
    run_ranks(
        2,
        [&](Communicator& world) {
          std::vector<float> buffer = contribution(world.rank(), 24);
          world.all_reduce(buffer, ReduceOp::kSum);
          if (world.rank() == 0) bytes = world.stats().wire_bytes_sent;
        },
        options);
    return bytes.load();
  };
  EXPECT_EQ(wire_bytes(IntegrityMode::kOff), wire_bytes(IntegrityMode::kHeal));
}

TEST(RingCrcTest, DetectModeThrowsOnCorruptedSegment) {
  WorldOptions options;
  options.ring_segment_elems = 8;
  options.ring_crc = IntegrityMode::kDetect;
  ChaosConfig chaos;
  chaos.wire.target_seq = 0;  // the first collective on the world comm
  chaos.wire.target_msg_index = 0;
  chaos.wire.target_src_world_rank = 0;
  EXPECT_THROW(
      run_ranks(
          2,
          [&](Communicator& world) {
            ChaosComm wrapped(world, chaos);
            std::vector<float> buffer = contribution(world.rank(), 24);
            wrapped.all_reduce(buffer, ReduceOp::kSum);
          },
          options),
      DataCorruptionError);
}

struct HealCase {
  int ranks;
  std::size_t elems;
  std::size_t segment;
};

// CTest names each case by GetParam()'s printed value. gtest's default dump
// of a struct's raw bytes includes the padding after `ranks`, which holds
// whatever was on the stack, so the case names changed from build to build.
void PrintTo(const HealCase& c, std::ostream* os) {
  *os << "ranks=" << c.ranks << " elems=" << c.elems
      << " segment=" << c.segment;
}

class RingHealSizes : public ::testing::TestWithParam<HealCase> {};

TEST_P(RingHealSizes, TargetedFlipHealsBitwiseIdentical) {
  const HealCase param = GetParam();
  const std::vector<float> expected =
      clean_all_reduce(param.ranks, param.elems, param.segment);

  WorldOptions options;
  options.ring_segment_elems = param.segment;
  options.ring_crc = IntegrityMode::kHeal;
  ChaosConfig chaos;
  chaos.wire.target_seq = 0;
  chaos.wire.target_msg_index = 0;
  chaos.wire.target_src_world_rank = 0;

  const CountersSnapshot before = integrity::counters().snapshot();
  run_ranks(
      param.ranks,
      [&](Communicator& world) {
        ChaosComm wrapped(world, chaos);
        std::vector<float> buffer = contribution(world.rank(), param.elems);
        wrapped.all_reduce(buffer, ReduceOp::kSum);
        EXPECT_EQ(buffer, expected) << "rank " << world.rank();
      },
      options);
  const CountersSnapshot after = integrity::counters().snapshot();
  // Rank 0 sends to exactly one ring neighbor, so exactly one message
  // matched the target: one injected fault, one detection, one retransmit,
  // one recovery.
  EXPECT_EQ(after.wire_faults_injected - before.wire_faults_injected, 1u);
  EXPECT_EQ(after.sdc_detected - before.sdc_detected, 1u);
  EXPECT_EQ(after.sdc_recovered - before.sdc_recovered, 1u);
  EXPECT_EQ(after.ring_retransmits - before.ring_retransmits, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    SegmentStraddle, RingHealSizes,
    ::testing::Values(HealCase{2, 2, 8},    // one element per rank chunk
                      HealCase{2, 8, 8},    // exactly one segment
                      HealCase{2, 9, 8},    // partial trailing segment
                      HealCase{4, 33, 8},   // partial chunks per rank
                      HealCase{3, 24, 0},   // unsegmented ring
                      HealCase{4, 64, 16}));

TEST(RingCrcTest, ProbabilisticWireChaosHealsUnderSustainedFaults) {
  // High per-message fault rate across *every* collective: retransmits
  // redraw (attempt is hashed into the schedule), so healing always makes
  // progress and the final state is still bitwise clean.
  const std::vector<float> expected = clean_all_reduce(3, 40, 8);
  WorldOptions options;
  options.ring_segment_elems = 8;
  options.ring_crc = IntegrityMode::kHeal;
  options.crc_max_retries = 16;  // p=0.3^16: escape failure is negligible
  ChaosConfig chaos;
  chaos.seed = 77;
  chaos.wire.corrupt_probability = 0.3;

  const CountersSnapshot before = integrity::counters().snapshot();
  run_ranks(
      3,
      [&](Communicator& world) {
        ChaosComm wrapped(world, chaos);
        std::vector<float> buffer = contribution(world.rank(), 40);
        for (int i = 0; i < 5; ++i) {
          std::vector<float> round = buffer;
          wrapped.all_reduce(round, ReduceOp::kSum);
          EXPECT_EQ(round, expected);
        }
      },
      options);
  const CountersSnapshot after = integrity::counters().snapshot();
  EXPECT_GT(after.wire_faults_injected, before.wire_faults_injected);
  EXPECT_GT(after.ring_retransmits, before.ring_retransmits);
  // Every detection healed (some faults may hit the same message twice
  // across retransmit redraws — recovery is still one per detection).
  EXPECT_EQ(after.sdc_detected - before.sdc_detected,
            after.sdc_recovered - before.sdc_recovered);
}

TEST(RingCrcTest, RetainedMessagesDrainToZero) {
  WorldOptions options;
  options.ring_segment_elems = 8;
  options.ring_crc = IntegrityMode::kHeal;
  ThreadWorld world(3, options);
  std::vector<std::thread> threads;
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([&world, r] {
      auto comm = world.world_comm(r);
      std::vector<float> buffer = contribution(r, 40);
      comm->all_reduce(buffer, ReduceOp::kSum);
      std::vector<float> recv(3 * 8);
      comm->all_gather(contribution(r, 8), recv);
    });
  }
  for (auto& t : threads) t.join();
  // Every sent frame was verified by its receiver and released.
  EXPECT_EQ(world.retained_messages(), 0u);
}

TEST(RingCrcTest, PersistentCorruptionExhaustsRetriesAndEscalates) {
  WorldOptions options;
  options.ring_segment_elems = 8;
  options.ring_crc = IntegrityMode::kHeal;
  options.crc_max_retries = 3;
  std::atomic<int> attempts_seen{0};
  bool saw_escalation = false;
  try {
    run_ranks(
        2,
        [&](Communicator& world) {
          auto* tc = dynamic_cast<ThreadComm*>(&world);
          ASSERT_NE(tc, nullptr);
          // A stuck link: the first message from rank 0 is corrupted on
          // every attempt, so retransmission cannot help.
          tc->thread_world()->set_wire_fault_hook(
              [&attempts_seen](const ThreadWorld::WireContext& ctx,
                               std::span<float> payload) {
                if (ctx.seq == 0 && ctx.msg_index == 0 &&
                    ctx.src_world_rank == 0 && !payload.empty()) {
                  attempts_seen.fetch_add(1);
                  auto* words =
                      reinterpret_cast<std::uint32_t*>(payload.data());
                  words[0] ^= 0x40000000u;
                }
              });
          std::vector<float> buffer = contribution(world.rank(), 24);
          world.all_reduce(buffer, ReduceOp::kSum);
        },
        options);
  } catch (const DataCorruptionError&) {
    saw_escalation = true;
  }
  EXPECT_TRUE(saw_escalation);
  EXPECT_EQ(attempts_seen.load(), 1 + options.crc_max_retries);
}

TEST(RingCrcTest, WireScheduleIsDeterministicAcrossRuns) {
  // Same seed, same config => identical fault/retransmit counts — the
  // reproducibility contract the ChaosComm wire mode documents.
  const auto wire_faults = [](int ranks, auto&& body) {
    WorldOptions options;
    options.ring_segment_elems = 8;
    options.ring_crc = IntegrityMode::kHeal;
    options.crc_max_retries = 16;
    const CountersSnapshot before = integrity::counters().snapshot();
    run_ranks(ranks, body, options);
    const CountersSnapshot after = integrity::counters().snapshot();
    return after.wire_faults_injected - before.wire_faults_injected;
  };
  ChaosConfig chaos;
  chaos.seed = 4242;
  chaos.wire.corrupt_probability = 0.25;

  const auto world_run = [&](Communicator& world) {
    ChaosComm wrapped(world, chaos);
    std::vector<float> buffer = contribution(world.rank(), 40);
    for (int i = 0; i < 4; ++i) wrapped.all_reduce(buffer, ReduceOp::kSum);
  };
  const std::uint64_t first = wire_faults(3, world_run);
  const std::uint64_t second = wire_faults(3, world_run);
  EXPECT_GT(first, 0u);
  EXPECT_EQ(first, second);

  // A two-colour split: ThreadWorld numbers sub-communicators in the order
  // their ranks reach split(), so the ids of the two halves vary between
  // runs. A throwaway split in one of the runs shifts them for certain
  // ({1, 2} against {2, 3}); the draws must not notice.
  const auto split_run = [&](bool throwaway) {
    auto splits_sent = std::make_shared<std::latch>(4);
    return [&chaos, throwaway, splits_sent](Communicator& world) {
      if (throwaway) world.split(0, world.rank());
      const auto half = world.split(world.rank() % 2, world.rank());
      // Every rank has sent its split messages before any rank installs the
      // world-wide wire schedule, and no traffic follows on the world
      // communicator, whose sequence numbers the throwaway shifted.
      splits_sent->arrive_and_wait();
      ChaosComm wrapped(world, chaos);
      std::vector<float> buffer = contribution(world.rank(), 40);
      for (int i = 0; i < 4; ++i) half->all_reduce(buffer, ReduceOp::kSum);
    };
  };
  const std::uint64_t split_first = wire_faults(4, split_run(false));
  const std::uint64_t split_second = wire_faults(4, split_run(true));
  EXPECT_GT(split_first, 0u);
  EXPECT_EQ(split_first, split_second);
}

}  // namespace
}  // namespace axonn::comm
