// The intra-rank GEMM worker pool and runtime ISA dispatch (DESIGN.md §13).
//
// The load-bearing property is bitwise thread-count invariance: the tiled
// backend's task grid is a pure function of the problem shape, each task owns
// a disjoint C rectangle, and per element the += order over k-slabs never
// changes — so any lane budget must reproduce the serial result exactly, per
// dispatched ISA tier, for every mode x backend x precision. The sweeps here
// pin that, plus the WorkerTeam contract and the dispatch/override plumbing.
// (The sweep drives the budget through set_gemm_threads()/GemmThreadScope —
// the same resolution path AXONN_GEMM_THREADS feeds, which is process-cached
// and so not flippable per-case in one test binary.)

#include "axonn/tensor/gemm_dispatch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "axonn/base/rng.hpp"
#include "axonn/base/worker_pool.hpp"
#include "axonn/tensor/gemm.hpp"
#include "axonn/tensor/gemm_tiled.hpp"

namespace axonn {
namespace {

// ---------------------------------------------------------------------------
// WorkerTeam
// ---------------------------------------------------------------------------

TEST(WorkerTeamTest, SingleLaneRunsInlineWithoutSpawning) {
  WorkerTeam team;
  std::thread::id ran_on;
  team.run(1, [&](int lane) {
    EXPECT_EQ(lane, 0);
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_EQ(team.spawned(), 0);
}

TEST(WorkerTeamTest, EveryLaneRunsExactlyOncePerJob) {
  WorkerTeam team;
  for (int lanes : {2, 4, 3, 7}) {
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(lanes));
    for (auto& h : hits) h.store(0);
    team.run(lanes, [&](int lane) {
      ASSERT_GE(lane, 0);
      ASSERT_LT(lane, lanes);
      hits[static_cast<std::size_t>(lane)].fetch_add(1);
    });
    for (int lane = 0; lane < lanes; ++lane) {
      EXPECT_EQ(hits[static_cast<std::size_t>(lane)].load(), 1)
          << "lanes=" << lanes << " lane=" << lane;
    }
  }
  // Helpers are spawned to the high-water mark and reused, never duplicated.
  EXPECT_EQ(team.spawned(), 6);
}

TEST(WorkerTeamTest, HelperExceptionPropagatesToCaller) {
  WorkerTeam team;
  EXPECT_THROW(
      team.run(4,
               [&](int lane) {
                 if (lane == 2) throw std::runtime_error("lane 2 failed");
               }),
      std::runtime_error);
  // The team survives a failed job.
  std::atomic<int> ok{0};
  team.run(4, [&](int) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 4);
}

TEST(WorkerTeamTest, ThisThreadReturnsAStableInstance) {
  WorkerTeam* first = &WorkerTeam::this_thread();
  EXPECT_EQ(first, &WorkerTeam::this_thread());
  WorkerTeam* other = nullptr;
  std::thread([&] { other = &WorkerTeam::this_thread(); }).join();
  EXPECT_NE(first, other);
}

// ---------------------------------------------------------------------------
// ISA dispatch
// ---------------------------------------------------------------------------

TEST(GemmIsaTest, ToStringCoversEveryTier) {
  EXPECT_STREQ(to_string(GemmIsa::kPortable), "portable");
  EXPECT_STREQ(to_string(GemmIsa::kAvx2), "avx2");
  EXPECT_STREQ(to_string(GemmIsa::kAvx512), "avx512");
}

TEST(GemmIsaTest, ActiveTierNeverExceedsDetected) {
  EXPECT_LE(static_cast<int>(active_gemm_isa()),
            static_cast<int>(detected_gemm_isa()));
}

TEST(GemmIsaTest, ForceClampsToDetectedAndResetRestores) {
  const GemmIsa ambient = active_gemm_isa();
  force_gemm_isa(GemmIsa::kAvx512);
  EXPECT_EQ(active_gemm_isa(),
            std::min(GemmIsa::kAvx512, detected_gemm_isa()));
  force_gemm_isa(GemmIsa::kPortable);
  EXPECT_EQ(active_gemm_isa(), GemmIsa::kPortable);
  // The portable tier never claims native bf16 rounding.
  EXPECT_FALSE(gemm_native_bf16());
  reset_gemm_isa();
  EXPECT_EQ(active_gemm_isa(), ambient);
}

TEST(GemmIsaTest, EveryCompiledTierMatchesPortableWithinTolerance) {
  // The portable tier is the correctness oracle: each wider tier computes
  // the same packed panels with the same per-element accumulation order, so
  // only FMA-contraction differences separate them.
  Rng rng(2024);
  const Matrix a = Matrix::randn(97, 131, rng);
  const Matrix b = Matrix::randn(131, 75, rng);
  force_gemm_isa(GemmIsa::kPortable);
  Matrix c_oracle(97, 75);
  gemm_tiled(GemmMode::kNN, 1.0f, a, b, 0.0f, c_oracle, false);
  for (GemmIsa tier : {GemmIsa::kAvx2, GemmIsa::kAvx512}) {
    if (static_cast<int>(tier) > static_cast<int>(detected_gemm_isa())) {
      continue;
    }
    force_gemm_isa(tier);
    ASSERT_EQ(active_gemm_isa(), tier);
    Matrix c(97, 75);
    gemm_tiled(GemmMode::kNN, 1.0f, a, b, 0.0f, c, false);
    EXPECT_LE(Matrix::max_abs_diff(c_oracle, c), 1e-4f) << to_string(tier);
  }
  reset_gemm_isa();
}

TEST(GemmIsaTest, OneRowPathIsBitwiseARowOfThePackedProduct) {
  // m == 1 NN fp32 products read B in place through the tier's row kernel;
  // each row of a 7-row (packed) product must come out bitwise the same.
  // k spans one and two kBlockK slabs; n is not a multiple of kTileNR and
  // covers the kernels' wide blocks and their partial tails.
  std::uint64_t seed = 31;
  for (GemmIsa tier : {GemmIsa::kPortable, GemmIsa::kAvx2, GemmIsa::kAvx512}) {
    if (static_cast<int>(tier) > static_cast<int>(detected_gemm_isa())) {
      continue;
    }
    force_gemm_isa(tier);
    for (std::size_t k : {std::size_t{40}, kBlockK + 44}) {
      for (std::size_t n : {std::size_t{7}, std::size_t{157}, std::size_t{300}}) {
        Rng rng(seed++);
        const Matrix a = Matrix::randn(7, k, rng);
        const Matrix b = Matrix::randn(k, n, rng);
        const Matrix c0 = Matrix::randn(7, n, rng);
        for (const float beta : {0.0f, 1.5f}) {
          Matrix packed = c0;
          gemm_tiled(GemmMode::kNN, 0.75f, a, b, beta, packed, false);
          for (std::size_t r = 0; r < 7; ++r) {
            const Range row{r, r + 1};
            Matrix one = c0.block(row, Range{0, n});
            gemm_tiled(GemmMode::kNN, 0.75f, a.block(row, Range{0, k}), b,
                       beta, one, false);
            EXPECT_EQ(std::memcmp(one.data(), packed.row(r), n * sizeof(float)),
                      0)
                << to_string(tier) << " k=" << k << " n=" << n
                << " beta=" << beta << " row=" << r;
          }
        }
      }
    }
  }
  reset_gemm_isa();
}

// ---------------------------------------------------------------------------
// Thread budget plumbing
// ---------------------------------------------------------------------------

TEST(GemmThreadsTest, ScopeOverridesGlobalAndRestoresOnExit) {
  set_gemm_threads(0);
  const int ambient = gemm_threads();
  set_gemm_threads(3);
  EXPECT_EQ(gemm_threads(), 3);
  {
    GemmThreadScope scope(5);
    EXPECT_EQ(gemm_threads(), 5);
    {
      GemmThreadScope inner(2);
      EXPECT_EQ(gemm_threads(), 2);
      GemmThreadScope noop(0);  // <= 0: keep the ambient budget
      EXPECT_EQ(gemm_threads(), 2);
    }
    EXPECT_EQ(gemm_threads(), 5);
  }
  EXPECT_EQ(gemm_threads(), 3);
  set_gemm_threads(0);
  EXPECT_EQ(gemm_threads(), ambient);
}

TEST(GemmThreadsTest, ScopeIsThreadLocal) {
  set_gemm_threads(0);
  GemmThreadScope scope(6);
  int seen_on_other_thread = -1;
  std::thread([&] { seen_on_other_thread = gemm_threads(); }).join();
  EXPECT_EQ(gemm_threads(), 6);
  EXPECT_NE(seen_on_other_thread, 6);
}

TEST(GemmThreadsTest, AutoBudgetReservesACommCore) {
  // auto = max(1, (hw - 1) / ranks); exact value is host-dependent, but the
  // invariants are not.
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  for (int ranks : {1, 2, 4, 64}) {
    const int budget = auto_gemm_threads(ranks);
    EXPECT_GE(budget, 1);
    if (hw > 1) EXPECT_LE(budget * ranks, hw - 1 + ranks - 1);
  }
  EXPECT_EQ(auto_gemm_threads(1 << 20), 1);
}

TEST(GemmThreadsTest, StatsRecordTierAndBudget) {
  Rng rng(7);
  const Matrix a = Matrix::randn(40, 24, rng);
  const Matrix b = Matrix::randn(24, 33, rng);
  Matrix c(40, 33);
  {
    GemmThreadScope scope(4);
    gemm_tiled(GemmMode::kNN, 1.0f, a, b, 0.0f, c, /*round_bf16=*/false);
  }
  EXPECT_EQ(last_gemm_stats().backend, GemmBackend::kTiled);
  EXPECT_EQ(last_gemm_stats().isa, active_gemm_isa());
  EXPECT_EQ(last_gemm_stats().threads, 4);
  // The reference backend has no lanes or tiers to report.
  gemm(GemmMode::kNN, 1.0f, a, b, 0.0f, c);
  EXPECT_EQ(last_gemm_stats().isa, GemmIsa::kPortable);
  EXPECT_EQ(last_gemm_stats().threads, 1);
}

// ---------------------------------------------------------------------------
// Bitwise thread-count invariance
// ---------------------------------------------------------------------------

struct ShapeCase {
  std::size_t m, n, k;
};

// Multi-block shapes (kBlockM=96, kTileNR=16, kGroupNTiles=8 columns-of-
// tiles per task): the grid must span several row blocks AND several column
// groups so lanes genuinely interleave, plus edge overhangs in every
// dimension and a single-task degenerate case.
const ShapeCase kShapes[] = {
    {200, 300, 128},  // 3 row blocks x 3 column groups
    {97, 160, 300},   // k spans two slabs, ragged m
    {13, 40, 7},      // single task: all budgets collapse to one lane
    {192, 256, 64},   // exact tile multiples
};

const GemmMode kModes[] = {GemmMode::kNN, GemmMode::kNT, GemmMode::kTN,
                           GemmMode::kTT};

Matrix operand(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  return Matrix::randn(rows, cols, rng);
}

Matrix make_a(GemmMode mode, const ShapeCase& s, std::uint64_t seed) {
  return gemm_transposes_a(mode) ? operand(s.k, s.m, seed)
                                 : operand(s.m, s.k, seed);
}
Matrix make_b(GemmMode mode, const ShapeCase& s, std::uint64_t seed) {
  return gemm_transposes_b(mode) ? operand(s.n, s.k, seed)
                                 : operand(s.k, s.n, seed);
}

TEST(GemmThreadInvarianceTest, BitwiseIdenticalAcrossBudgetsForEveryTier) {
  std::uint64_t seed = 9000;
  for (GemmIsa tier : {GemmIsa::kPortable, GemmIsa::kAvx2, GemmIsa::kAvx512}) {
    if (static_cast<int>(tier) > static_cast<int>(detected_gemm_isa())) {
      continue;
    }
    force_gemm_isa(tier);
    for (const ShapeCase& s : kShapes) {
      for (GemmMode mode : kModes) {
        for (bool bf16 : {false, true}) {
          const Matrix a = make_a(mode, s, seed++);
          const Matrix b = make_b(mode, s, seed++);
          Matrix serial(s.m, s.n);
          {
            GemmThreadScope one(1);
            gemm_tiled(mode, 1.0f, a, b, 0.0f, serial, bf16);
          }
          for (int threads : {2, 4, 7}) {
            GemmThreadScope scope(threads);
            Matrix c(s.m, s.n);
            gemm_tiled(mode, 1.0f, a, b, 0.0f, c, bf16);
            EXPECT_EQ(Matrix::max_abs_diff(serial, c), 0.0f)
                << to_string(tier) << " m=" << s.m << " n=" << s.n
                << " k=" << s.k << " " << to_string(mode) << " bf16=" << bf16
                << " threads=" << threads;
          }
        }
      }
    }
  }
  reset_gemm_isa();
}

TEST(GemmThreadInvarianceTest, ReferenceBackendIgnoresBudgetBitwise) {
  // The reference kernel never threads; the budget must be a strict no-op.
  const ShapeCase s{33, 47, 29};
  const Matrix a = make_a(GemmMode::kNN, s, 1);
  const Matrix b = make_b(GemmMode::kNN, s, 2);
  Matrix serial(s.m, s.n), budgeted(s.m, s.n);
  gemm(GemmMode::kNN, 1.0f, a, b, 0.0f, serial);
  {
    GemmThreadScope scope(7);
    gemm(GemmMode::kNN, 1.0f, a, b, 0.0f, budgeted);
  }
  EXPECT_EQ(Matrix::max_abs_diff(serial, budgeted), 0.0f);
}

TEST(GemmThreadInvarianceTest, PrepackedAndAlphaBetaStayBitwiseUnderThreads) {
  // The packed-op(B) kernel on the alpha != 1, beta != 0 accumulate path,
  // threaded: it must reproduce its serial result exactly.
  const ShapeCase s{200, 300, 128};
  const Matrix a = make_a(GemmMode::kNN, s, 41);
  const Matrix b = make_b(GemmMode::kNN, s, 42);
  Matrix serial = operand(s.m, s.n, 43);
  Matrix threaded = serial;
  {
    GemmThreadScope one(1);
    gemm_tiled(GemmMode::kNN, 0.5f, a, b, 2.0f, serial, false);
  }
  {
    GemmThreadScope four(4);
    gemm_tiled(GemmMode::kNN, 0.5f, a, b, 2.0f, threaded, false);
  }
  EXPECT_EQ(Matrix::max_abs_diff(serial, threaded), 0.0f);
}

}  // namespace
}  // namespace axonn
