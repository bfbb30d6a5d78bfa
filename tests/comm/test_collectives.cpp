// Blocking collectives over the real thread runtime (ThreadComm).

#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "axonn/base/error.hpp"
#include "axonn/comm/thread_comm.hpp"

namespace axonn::comm {
namespace {

TEST(ThreadCommTest, WorldRankAndSize) {
  run_ranks(4, [](Communicator& comm) {
    EXPECT_EQ(comm.size(), 4);
    EXPECT_GE(comm.rank(), 0);
    EXPECT_LT(comm.rank(), 4);
  });
}

TEST(ThreadCommTest, AllReduceSum) {
  run_ranks(4, [](Communicator& comm) {
    std::vector<float> buf{static_cast<float>(comm.rank()),
                           static_cast<float>(comm.rank() * 2)};
    comm.all_reduce(buf, ReduceOp::kSum);
    EXPECT_EQ(buf[0], 6.0f);   // 0+1+2+3
    EXPECT_EQ(buf[1], 12.0f);
  });
}

TEST(ThreadCommTest, AllReduceMax) {
  run_ranks(5, [](Communicator& comm) {
    std::vector<float> buf{static_cast<float>(comm.rank())};
    comm.all_reduce(buf, ReduceOp::kMax);
    EXPECT_EQ(buf[0], 4.0f);
  });
}

TEST(ThreadCommTest, AllReduceUnevenBufferSize) {
  // n=7 not divisible by p=4: chunking must still reconstruct exactly.
  run_ranks(4, [](Communicator& comm) {
    std::vector<float> buf(7);
    for (std::size_t i = 0; i < buf.size(); ++i) {
      buf[i] = static_cast<float>(comm.rank() + 1) * static_cast<float>(i + 1);
    }
    comm.all_reduce(buf, ReduceOp::kSum);
    for (std::size_t i = 0; i < buf.size(); ++i) {
      EXPECT_FLOAT_EQ(buf[i], 10.0f * static_cast<float>(i + 1));
    }
  });
}

TEST(ThreadCommTest, AllGather) {
  run_ranks(3, [](Communicator& comm) {
    const std::vector<float> mine{static_cast<float>(comm.rank() * 100)};
    std::vector<float> all(3);
    comm.all_gather(mine, all);
    EXPECT_EQ(all, (std::vector<float>{0.0f, 100.0f, 200.0f}));
  });
}

TEST(ThreadCommTest, AllGatherRejectsBadRecvSize) {
  run_ranks(2, [](Communicator& comm) {
    const std::vector<float> mine{1.0f};
    std::vector<float> too_small(1);
    EXPECT_THROW(comm.all_gather(mine, too_small), Error);
    // Recover the runtime with a matched collective on both ranks.
    std::vector<float> ok(2);
    comm.all_gather(mine, ok);
  });
}

TEST(ThreadCommTest, AllGathervUnequalContributions) {
  run_ranks(3, [](Communicator& comm) {
    const std::vector<std::size_t> counts{1, 2, 3};
    std::vector<float> mine(counts[static_cast<std::size_t>(comm.rank())],
                            static_cast<float>(comm.rank() + 1));
    std::vector<float> all(6);
    comm.all_gatherv(mine, all, counts);
    EXPECT_EQ(all, (std::vector<float>{1, 2, 2, 3, 3, 3}));
  });
}

TEST(ThreadCommTest, ReduceScatter) {
  run_ranks(4, [](Communicator& comm) {
    std::vector<float> send(8);
    for (std::size_t i = 0; i < 8; ++i) {
      send[i] = static_cast<float>(comm.rank()) + static_cast<float>(i) * 10.0f;
    }
    std::vector<float> recv(2);
    comm.reduce_scatter(send, recv, ReduceOp::kSum);
    // Reduced element i = sum_r (r + 10 i) = 6 + 40 i; rank r owns i in
    // {2r, 2r+1}.
    const auto r = static_cast<float>(comm.rank());
    EXPECT_FLOAT_EQ(recv[0], 6.0f + 40.0f * (2 * r));
    EXPECT_FLOAT_EQ(recv[1], 6.0f + 40.0f * (2 * r + 1));
  });
}

TEST(ThreadCommTest, ReduceScattervUnequalChunks) {
  run_ranks(3, [](Communicator& comm) {
    const std::vector<std::size_t> counts{3, 2, 1};
    std::vector<float> send{1, 1, 1, 2, 2, 3};  // same on every rank
    std::vector<float> recv(counts[static_cast<std::size_t>(comm.rank())]);
    comm.reduce_scatterv(send, recv, counts, ReduceOp::kSum);
    if (comm.rank() == 0) {
      EXPECT_EQ(recv, (std::vector<float>{3, 3, 3}));
    } else if (comm.rank() == 1) {
      EXPECT_EQ(recv, (std::vector<float>{6, 6}));
    } else {
      EXPECT_EQ(recv, (std::vector<float>{9}));
    }
  });
}

TEST(ThreadCommTest, BroadcastFromEveryRoot) {
  run_ranks(4, [](Communicator& comm) {
    for (int root = 0; root < 4; ++root) {
      std::vector<float> buf(3, comm.rank() == root ? 42.0f : 0.0f);
      comm.broadcast(buf, root);
      EXPECT_EQ(buf, (std::vector<float>{42.0f, 42.0f, 42.0f})) << root;
    }
  });
}

TEST(ThreadCommTest, BarrierCompletes) {
  run_ranks(6, [](Communicator& comm) {
    for (int i = 0; i < 3; ++i) comm.barrier();
  });
}

TEST(ThreadCommTest, StatsCountWireBytes) {
  run_ranks(4, [](Communicator& comm) {
    comm.reset_stats();
    std::vector<float> buf(16, 1.0f);
    comm.all_reduce(buf, ReduceOp::kSum);
    const CommStats& stats = comm.stats();
    EXPECT_EQ(stats.all_reduce_calls, 1u);
    // Ring all-reduce moves 2*(p-1)/p*n elements per rank.
    EXPECT_EQ(stats.wire_bytes_sent, 2u * 3 * 4 * sizeof(float));
  });
}

TEST(ThreadCommTest, ExceptionInOneRankUnblocksOthers) {
  EXPECT_THROW(
      run_ranks(3,
                [](Communicator& comm) {
                  if (comm.rank() == 1) {
                    throw Error("rank 1 exploded");
                  }
                  // Ranks 0 and 2 would deadlock here without abort support.
                  std::vector<float> buf(4, 1.0f);
                  comm.all_reduce(buf, ReduceOp::kSum);
                }),
      Error);
}

TEST(ThreadCommTest, ManySmallCollectivesStressOrdering) {
  run_ranks(4, [](Communicator& comm) {
    for (int iter = 0; iter < 50; ++iter) {
      std::vector<float> buf{static_cast<float>(comm.rank() + iter)};
      comm.all_reduce(buf, ReduceOp::kSum);
      EXPECT_FLOAT_EQ(buf[0], 6.0f + 4.0f * static_cast<float>(iter));
    }
  });
}

TEST(ThreadCommTest, LargeBuffer) {
  run_ranks(2, [](Communicator& comm) {
    std::vector<float> buf(1 << 16, 1.0f);
    comm.all_reduce(buf, ReduceOp::kSum);
    EXPECT_EQ(buf.front(), 2.0f);
    EXPECT_EQ(buf.back(), 2.0f);
  });
}

// A grid dimension of extent 1 runs its group as an ordinary one-rank
// ThreadComm: every collective is an identity or a copy, sizes still checked.
TEST(ThreadCommTest, OneRankCollectivesCopyAndValidate) {
  run_ranks(1, [](Communicator& c) {
    EXPECT_EQ(c.rank(), 0);
    EXPECT_EQ(c.size(), 1);
    const std::vector<float> in{1.0f, -2.0f, 3.0f};
    const std::vector<std::size_t> n{3};
    const ReduceOp sum = ReduceOp::kSum;
    using Case =
        std::pair<const char*, std::function<void(std::vector<float>&)>>;
    const Case cases[] = {
        {"all_reduce", [&](auto& o) { o = in; c.all_reduce(o, sum); }},
        {"iall_reduce",
         [&](auto& o) { o = in; c.iall_reduce(o, sum).wait(); }},
        {"broadcast", [&](auto& o) { o = in; c.broadcast(o, 0); }},
        {"all_gather", [&](auto& o) { c.all_gather(in, o); }},
        {"all_gatherv", [&](auto& o) { c.all_gatherv(in, o, n); }},
        {"reduce_scatter", [&](auto& o) { c.reduce_scatter(in, o, sum); }},
        {"reduce_scatterv", [&](auto& o) { c.reduce_scatterv(in, o, n, sum); }},
    };
    for (const auto& [name, op] : cases) {
      std::vector<float> out(in.size());
      op(out);
      EXPECT_EQ(out, in) << name;
    }
    EXPECT_EQ(c.stats().all_reduce_calls, 2u);
    EXPECT_EQ(c.stats().all_gather_calls, 2u);
    EXPECT_EQ(c.stats().reduce_scatter_calls, 2u);
    EXPECT_EQ(c.stats().broadcast_calls, 1u);
    EXPECT_EQ(c.stats().wire_bytes_sent, 0u);
    c.reset_stats();
    EXPECT_EQ(c.stats().all_reduce_calls, 0u);

    std::vector<float> one(1);
    EXPECT_THROW(c.all_gather(in, one), Error);
    EXPECT_THROW(c.all_gatherv(in, one, n), Error);
    EXPECT_THROW(c.reduce_scatter(in, one, sum), Error);
    EXPECT_THROW(c.reduce_scatterv(in, one, n, sum), Error);
    EXPECT_EQ(c.split(-1, 0), nullptr);
    EXPECT_EQ(c.split(5, 0)->size(), 1);
  });
}

}  // namespace
}  // namespace axonn::comm
