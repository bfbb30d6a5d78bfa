// The priority comm-progress engine (DESIGN.md §12): each CommPriority class
// drains on its own dedicated FIFO lane per rank, so a critical-path
// collective (OAR) is never serialized behind a bulk transfer (ORS) that was
// issued first — the failure mode of the old single progress queue. Plus the
// alpha-beta ring segment model that replaces the flat segment size, and the
// end-to-end auto-segmented collectives it drives.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <numeric>
#include <span>
#include <thread>
#include <vector>

#include "axonn/comm/segment_model.hpp"
#include "axonn/comm/thread_comm.hpp"
#include "axonn/perf/comm_model.hpp"
#include "axonn/sim/machine.hpp"

namespace axonn::comm {
namespace {

TEST(PriorityLanesTest, HighPriorityBypassesBusyBulkLane) {
  run_ranks(2, [](Communicator& world) {
    // Occupy this rank's bulk lane with a host task that spins until
    // released — the stand-in for a large ORS reduce-scatter in flight.
    std::atomic<bool> release{false};
    std::atomic<bool> bulk_ran{false};
    Request bulk = world.run_on_stream(
        [&] {
          while (!release.load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
          bulk_ran.store(true, std::memory_order_release);
        },
        CommPriority::kBulk);

    // A kHigh all-reduce must complete while the bulk lane is still held.
    // With the old single FIFO worker this wait() would deadlock: the
    // spinning task is ahead of the all-reduce in the only queue.
    std::vector<float> buf(64, world.rank() == 0 ? 1.0f : 2.0f);
    Request high =
        world.iall_reduce(std::span<float>(buf), ReduceOp::kSum,
                          CommPriority::kHigh);
    high.wait();
    EXPECT_FALSE(bulk_ran.load(std::memory_order_acquire));
    for (float v : buf) EXPECT_EQ(v, 3.0f);

    release.store(true, std::memory_order_release);
    bulk.wait();
    EXPECT_TRUE(bulk_ran.load(std::memory_order_acquire));
  });
}

TEST(PriorityLanesTest, HostTaskIsFifoAfterCollectiveOnSameLane) {
  // The host-task contract: a run_on_stream() task posted to the same
  // lane after a nonblocking gather sees the gathered data (lane FIFO), and
  // waiting on the task implies the gather completed.
  run_ranks(4, [](Communicator& world) {
    const std::size_t n = 32;
    std::vector<float> send(n, static_cast<float>(world.rank() + 1));
    std::vector<float> recv(n * 4, 0.0f);
    world.iall_gather(send, std::span<float>(recv), CommPriority::kNormal);
    float sum = 0.0f;
    Request pack = world.run_on_stream(
        [&] { sum = std::accumulate(recv.begin(), recv.end(), 0.0f); },
        CommPriority::kNormal);
    pack.wait();
    // 32 * (1 + 2 + 3 + 4): every rank's contribution had landed before the
    // host task ran.
    EXPECT_EQ(sum, static_cast<float>(n * 10));
  });
}

TEST(PriorityLanesTest, AllLanesDrainAndAgreeWithBlockingResults) {
  // One collective per lane, concurrently in flight, all correct — and the
  // world tears down cleanly with three started lanes per rank.
  run_ranks(4, [](Communicator& world) {
    const float r = static_cast<float>(world.rank());
    std::vector<float> ar(16, r + 1.0f);
    std::vector<float> ag_send(8, r);
    std::vector<float> ag_recv(32, -1.0f);
    std::vector<float> rs_send(16);
    std::iota(rs_send.begin(), rs_send.end(), 0.0f);
    std::vector<float> rs_recv(4, 0.0f);

    Request a = world.iall_reduce(std::span<float>(ar), ReduceOp::kSum,
                                  CommPriority::kHigh);
    Request b = world.iall_gather(ag_send, std::span<float>(ag_recv),
                                  CommPriority::kNormal);
    Request c = world.ireduce_scatter(rs_send, std::span<float>(rs_recv),
                                      ReduceOp::kSum, CommPriority::kBulk);
    a.wait();
    b.wait();
    c.wait();

    for (float v : ar) EXPECT_EQ(v, 10.0f);  // 1+2+3+4
    for (int src = 0; src < 4; ++src) {
      for (std::size_t i = 0; i < 8; ++i) {
        EXPECT_EQ(ag_recv[static_cast<std::size_t>(src) * 8 + i],
                  static_cast<float>(src));
      }
    }
    const auto base = static_cast<float>(world.rank() * 4);
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(rs_recv[i], 4.0f * (base + static_cast<float>(i)));
    }
  });
}

TEST(SegmentModelTest, SmallRingsAreUnsegmented) {
  // p <= 2 means one ring hop: there is no pipeline to fill, segmentation is
  // pure startup overhead.
  EXPECT_EQ(model_ring_segment_elems(1 << 20, 2, {}), 0u);
  EXPECT_EQ(model_ring_segment_elems(1 << 20, 1, {}), 0u);
  EXPECT_EQ(model_ring_segment_elems(0, 8, {}), 0u);
}

TEST(SegmentModelTest, DegenerateCostTermsDisableSegmentation) {
  RingSegmentModel no_alpha;
  no_alpha.alpha_s = 0.0;
  EXPECT_EQ(model_ring_segment_elems(1 << 20, 8, no_alpha), 0u);
  RingSegmentModel no_beta;
  no_beta.beta_s_per_elem = 0.0;
  EXPECT_EQ(model_ring_segment_elems(1 << 20, 8, no_beta), 0u);
}

TEST(SegmentModelTest, OptimumScalesAsSqrtOfChunk) {
  // s* = sqrt(N * alpha / ((h-1) * beta)): quadrupling N doubles s*.
  RingSegmentModel m;
  m.alpha_s = 1e-6;
  m.beta_s_per_elem = 1e-9;
  m.min_segment_elems = 1;
  const std::size_t s1 = model_ring_segment_elems(1 << 16, 8, m);
  const std::size_t s4 = model_ring_segment_elems(1 << 18, 8, m);
  ASSERT_GT(s1, 0u);
  EXPECT_NEAR(static_cast<double>(s4) / static_cast<double>(s1), 2.0, 0.05);
  // And the closed form matches: sqrt(65536 * 1e-6 / (6 * 1e-9)).
  const auto expected = static_cast<std::size_t>(
      std::sqrt(65536.0 * 1e-6 / (6.0 * 1e-9)));
  EXPECT_EQ(s1, expected);
}

TEST(SegmentModelTest, ClampedToMinimumAndChunk) {
  RingSegmentModel m;
  m.alpha_s = 1e-9;  // near-free startup: raw optimum is tiny
  m.beta_s_per_elem = 1e-6;
  m.min_segment_elems = 256;
  EXPECT_EQ(model_ring_segment_elems(1 << 16, 8, m), 256u);

  // Raw optimum at or beyond the chunk: segmentation cannot help, fall back
  // to the unsegmented schedule.
  m.alpha_s = 1.0;
  m.beta_s_per_elem = 1e-12;
  EXPECT_EQ(model_ring_segment_elems(1 << 10, 8, m), 0u);
}

TEST(SegmentModelTest, PerfModelDerivesTransportTerms) {
  // The perf wrapper feeds the machine's startup latency and a dimension's
  // effective bandwidth into the transport model.
  sim::MachineConfig machine;
  machine.message_latency_s = 5e-6;
  machine.internode_bandwidth = 100e9;
  const RingSegmentModel m = perf::ring_segment_model(machine, 200e9);
  EXPECT_DOUBLE_EQ(m.alpha_s, 5e-6);
  EXPECT_DOUBLE_EQ(m.beta_s_per_elem, 4.0 / 200e9);
  // Non-positive bandwidth falls back to the inter-node figure.
  const RingSegmentModel fallback = perf::ring_segment_model(machine, 0.0);
  EXPECT_DOUBLE_EQ(fallback.beta_s_per_elem, 4.0 / 100e9);
}

TEST(SegmentModelTest, AutoSegmentedCollectivesMatchGolden) {
  // End to end: a world with model-driven segment sizing (alpha/beta chosen
  // so mid-size chunks really do segment) reproduces the exact results of
  // the unsegmented golden algorithms — blocking and nonblocking, uniform
  // and v-variant.
  WorldOptions options;
  options.ring_segment_auto = true;
  options.ring_segment_model.alpha_s = 1e-6;
  options.ring_segment_model.beta_s_per_elem = 1e-6;
  options.ring_segment_model.min_segment_elems = 4;

  run_ranks(
      4,
      [](Communicator& world) {
        const float r = static_cast<float>(world.rank());

        std::vector<float> ar(256);
        std::iota(ar.begin(), ar.end(), r);
        world.all_reduce(std::span<float>(ar), ReduceOp::kSum);
        for (std::size_t i = 0; i < ar.size(); ++i) {
          // sum over ranks of (i + r) = 4i + 6.
          EXPECT_EQ(ar[i], 4.0f * static_cast<float>(i) + 6.0f);
        }

        // v-variant with rank-dependent counts: the model's chunk hint must
        // be rank-invariant or the schedules deadlock — this is the
        // regression surface.
        const std::vector<std::size_t> counts{40, 24, 56, 8};
        std::vector<float> send(counts[static_cast<std::size_t>(world.rank())],
                                r + 1.0f);
        std::vector<float> recv(128, 0.0f);
        Request req = world.iall_gatherv(send, std::span<float>(recv), counts,
                                         CommPriority::kNormal);
        req.wait();
        std::size_t offset = 0;
        for (int src = 0; src < 4; ++src) {
          for (std::size_t i = 0; i < counts[static_cast<std::size_t>(src)];
               ++i) {
            EXPECT_EQ(recv[offset + i], static_cast<float>(src) + 1.0f);
          }
          offset += counts[static_cast<std::size_t>(src)];
        }

        std::vector<float> rs_send(128);
        std::iota(rs_send.begin(), rs_send.end(), 0.0f);
        std::vector<float> rs_recv(
            counts[static_cast<std::size_t>(world.rank())], 0.0f);
        Request rs = world.ireduce_scatterv(rs_send, std::span<float>(rs_recv),
                                            counts, ReduceOp::kSum,
                                            CommPriority::kBulk);
        rs.wait();
        std::size_t base = 0;
        for (int src = 0; src < world.rank(); ++src) {
          base += counts[static_cast<std::size_t>(src)];
        }
        for (std::size_t i = 0; i < rs_recv.size(); ++i) {
          EXPECT_EQ(rs_recv[i], 4.0f * static_cast<float>(base + i));
        }
      },
      options);
}

TEST(SegmentModelTest, AutoModeParsedFromEnvironment) {
  // AXONN_RING_SEGMENT=auto turns the model on; a numeric value keeps the
  // flat size and turns it back off. The variable is read once, at world
  // construction (set before run_ranks spawns any rank thread).
  ::setenv("AXONN_RING_SEGMENT", "auto", 1);
  run_ranks(2, [](Communicator& world) {
    auto& tc = dynamic_cast<ThreadComm&>(world);
    EXPECT_TRUE(tc.thread_world()->ring_segment_auto());
  });

  ::setenv("AXONN_RING_SEGMENT", "512", 1);
  run_ranks(2, [](Communicator& world) {
    auto& tc = dynamic_cast<ThreadComm&>(world);
    EXPECT_FALSE(tc.thread_world()->ring_segment_auto());
    EXPECT_EQ(tc.thread_world()->ring_segment_elems(), 512u);
  });
  ::unsetenv("AXONN_RING_SEGMENT");
}

}  // namespace
}  // namespace axonn::comm
