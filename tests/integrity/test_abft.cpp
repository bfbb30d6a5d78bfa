// ABFT (Huang–Abraham) checksum verification: clean GEMMs never false-
// positive across shapes x modes x backends x precisions, an injected
// single-element fault is always detected (and localized), and heal mode
// recomputes to a bitwise-identical result — including through the
// TensorParallelFC hot path that production training runs.

#include "axonn/integrity/abft.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <vector>

#include "axonn/base/rng.hpp"
#include "axonn/comm/thread_comm.hpp"
#include "axonn/core/fc_layer.hpp"
#include "axonn/tensor/gemm.hpp"
#include "axonn/tensor/gemm_dispatch.hpp"
#include "axonn/tensor/gemm_tiled.hpp"

namespace axonn::integrity {
namespace {

struct GemmCase {
  std::size_t m, n, k;
  GemmMode mode;
  GemmBackend backend;
  bool bf16;
};

// Shapes straddle the tiled backend's blocking: scalars, odd primes, exact
// tiles, and larger-than-one-tile.
const std::size_t kShapes[][3] = {
    {1, 1, 1}, {3, 5, 7}, {17, 9, 33}, {32, 32, 32}, {48, 40, 72}};

std::vector<GemmCase> all_cases() {
  std::vector<GemmCase> cases;
  for (const auto& s : kShapes) {
    for (GemmMode mode : {GemmMode::kNN, GemmMode::kNT, GemmMode::kTN}) {
      for (GemmBackend backend :
           {GemmBackend::kReference, GemmBackend::kTiled}) {
        for (bool bf16 : {false, true}) {
          cases.push_back({s[0], s[1], s[2], mode, backend, bf16});
        }
      }
    }
  }
  return cases;
}

// Operand matrices shaped for op(A) (m x k) and op(B) (k x n) under `mode`.
Matrix make_a(const GemmCase& c, Rng& rng) {
  const bool ta = gemm_transposes_a(c.mode);
  return Matrix::randn(ta ? c.k : c.m, ta ? c.m : c.k, rng);
}

Matrix make_b(const GemmCase& c, Rng& rng) {
  const bool tb = gemm_transposes_b(c.mode);
  return Matrix::randn(tb ? c.n : c.k, tb ? c.k : c.n, rng);
}

// The kernel under test, dispatched like the production call sites do.
void run_kernel(const GemmCase& c, const Matrix& a, const Matrix& b,
                Matrix& out) {
  if (c.backend == GemmBackend::kTiled) {
    gemm_tiled(c.mode, 1.0f, a, b, 0.0f, out, c.bf16);
  } else if (c.bf16) {
    gemm_bf16(c.mode, 1.0f, a, b, 0.0f, out);
  } else {
    gemm(c.mode, 1.0f, a, b, 0.0f, out);
  }
}

void checked(const GemmCase& c, const AbftOptions& opts, const Matrix& a,
             const Matrix& b, Matrix& out) {
  abft_checked_gemm(opts, "test", c.backend, c.mode, 1.0f, a, b, 0.0f, out,
                    c.bf16, [&](Matrix& dst) { run_kernel(c, a, b, dst); });
}

TEST(AbftTest, CleanGemmsNeverFalsePositive) {
  AbftOptions opts;
  opts.mode = IntegrityMode::kDetect;
  Rng rng(0xABF7);
  const CountersSnapshot before = counters().snapshot();
  std::uint64_t ran = 0;
  for (const GemmCase& c : all_cases()) {
    const Matrix a = make_a(c, rng);
    const Matrix b = make_b(c, rng);
    Matrix out(c.m, c.n);
    EXPECT_NO_THROW(checked(c, opts, a, b, out))
        << "m=" << c.m << " n=" << c.n << " k=" << c.k << " mode "
        << to_string(c.mode) << " backend " << to_string(c.backend)
        << " bf16=" << c.bf16;
    ++ran;
  }
  const CountersSnapshot after = counters().snapshot();
  EXPECT_EQ(after.abft_checks - before.abft_checks, ran);
  EXPECT_EQ(after.abft_mismatches, before.abft_mismatches);
}

TEST(AbftTest, OffModeIsBitIdenticalToUncheckedKernel) {
  Rng rng(7);
  for (const GemmCase& c : all_cases()) {
    const Matrix a = make_a(c, rng);
    const Matrix b = make_b(c, rng);
    Matrix plain(c.m, c.n), wrapped(c.m, c.n);
    run_kernel(c, a, b, plain);
    AbftOptions opts;  // kOff
    checked(c, opts, a, b, wrapped);
    EXPECT_EQ(plain.storage(), wrapped.storage());
  }
}

TEST(AbftTest, InjectedFaultIsDetectedAndLocalized) {
  AbftOptions opts;
  opts.mode = IntegrityMode::kDetect;
  Rng rng(21);
  for (const GemmCase& c : all_cases()) {
    const Matrix a = make_a(c, rng);
    const Matrix b = make_b(c, rng);
    Matrix out(c.m, c.n);
    AbftFaultPlan plan;
    plan.row = c.m / 2;
    plan.col = c.n / 2;
    arm_abft_fault(plan);
    try {
      checked(c, opts, a, b, out);
      ADD_FAILURE() << "bit-30 fault undetected at m=" << c.m << " n=" << c.n
                    << " k=" << c.k << " mode " << to_string(c.mode);
      disarm_abft_fault();
    } catch (const SdcError& e) {
      EXPECT_EQ(e.bad_row(), plan.row);
      EXPECT_EQ(e.bad_col(), plan.col);
      EXPECT_EQ(e.mode(), c.mode);
      EXPECT_EQ(e.backend(), c.backend);
    }
  }
  EXPECT_FALSE(disarm_abft_fault());  // every plan fired
}

TEST(AbftTest, HealRecoversBitIdenticalResult) {
  AbftOptions opts;
  opts.mode = IntegrityMode::kHeal;
  Rng rng(33);
  const CountersSnapshot before = counters().snapshot();
  std::uint64_t faults = 0;
  for (const GemmCase& c : all_cases()) {
    const Matrix a = make_a(c, rng);
    const Matrix b = make_b(c, rng);
    Matrix clean(c.m, c.n);
    run_kernel(c, a, b, clean);

    Matrix healed(c.m, c.n);
    arm_abft_fault({});
    EXPECT_NO_THROW(checked(c, opts, a, b, healed));
    EXPECT_EQ(clean.storage(), healed.storage());
    ++faults;
  }
  const CountersSnapshot after = counters().snapshot();
  EXPECT_EQ(after.sdc_detected - before.sdc_detected, faults);
  EXPECT_EQ(after.sdc_recovered - before.sdc_recovered, faults);
  EXPECT_GE(after.abft_recomputes - before.abft_recomputes, faults);
}

TEST(AbftTest, ThreadedTiledPathsDetectAndHealOnEveryIsaTier) {
  // ABFT checksums are computed on the finished C, so neither the worker-
  // lane count nor the dispatched micro-kernel tier may change detect/heal
  // behavior: clean threaded GEMMs never false-positive, an injected fault
  // heals to the threaded run's own bitwise result — on the forced-portable
  // oracle tier and on whatever this host dispatches natively, bf16 included.
  for (GemmIsa tier : {GemmIsa::kPortable, detected_gemm_isa()}) {
    force_gemm_isa(tier);
    GemmThreadScope lanes(4);
    Rng rng(0x7EAD);
    for (const GemmCase& c : all_cases()) {
      if (c.backend != GemmBackend::kTiled) continue;
      const Matrix a = make_a(c, rng);
      const Matrix b = make_b(c, rng);
      Matrix clean(c.m, c.n);
      run_kernel(c, a, b, clean);

      AbftOptions opts;
      opts.mode = IntegrityMode::kDetect;
      Matrix out(c.m, c.n);
      EXPECT_NO_THROW(checked(c, opts, a, b, out))
          << to_string(tier) << " m=" << c.m << " n=" << c.n << " k=" << c.k
          << " mode " << to_string(c.mode) << " bf16=" << c.bf16;
      EXPECT_EQ(out.storage(), clean.storage());

      opts.mode = IntegrityMode::kHeal;
      Matrix healed(c.m, c.n);
      arm_abft_fault({});
      EXPECT_NO_THROW(checked(c, opts, a, b, healed));
      EXPECT_EQ(healed.storage(), clean.storage())
          << to_string(tier) << " heal diverged at m=" << c.m << " n=" << c.n;
    }
  }
  reset_gemm_isa();
}

TEST(AbftTest, HealRestoresAccumulatorWhenBetaNonZero) {
  // C = A x B + C0: heal must re-run from the *original* C0, not the
  // corrupted C.
  Rng rng(44);
  const Matrix a = Matrix::randn(9, 13, rng);
  const Matrix b = Matrix::randn(13, 6, rng);
  Matrix c0 = Matrix::randn(9, 6, rng);

  Matrix clean = c0;
  gemm(GemmMode::kNN, 1.0f, a, b, 1.0f, clean);

  AbftOptions opts;
  opts.mode = IntegrityMode::kHeal;
  Matrix healed = c0;
  arm_abft_fault({});
  abft_checked_gemm(opts, "beta", GemmBackend::kReference, GemmMode::kNN, 1.0f,
                    a, b, 1.0f, healed, false, [&](Matrix& dst) {
                      gemm(GemmMode::kNN, 1.0f, a, b, 1.0f, dst);
                    });
  EXPECT_EQ(clean.storage(), healed.storage());
}

TEST(AbftTest, PersistentFaultExhaustsHealBudgetAndThrows) {
  AbftOptions opts;
  opts.mode = IntegrityMode::kHeal;
  opts.max_recomputes = 2;
  Rng rng(55);
  const Matrix a = Matrix::randn(8, 8, rng);
  const Matrix b = Matrix::randn(8, 8, rng);
  Matrix out(8, 8);
  // A fault in the *kernel itself* (not the one-shot plan): every attempt
  // reproduces the corruption, so heal must give up after max_recomputes.
  int runs = 0;
  EXPECT_THROW(
      abft_checked_gemm(opts, "stuck", GemmBackend::kReference, GemmMode::kNN,
                        1.0f, a, b, 0.0f, out, false,
                        [&](Matrix& dst) {
                          gemm(GemmMode::kNN, 1.0f, a, b, 0.0f, dst);
                          dst(0, 0) = dst(0, 0) * 1e20f;  // persistent SDC
                          ++runs;
                        }),
      SdcError);
  EXPECT_EQ(runs, 1 + opts.max_recomputes);
}

// --------------------------------------------------------------------------
// TensorParallelFC integration: the production hot path.
// --------------------------------------------------------------------------

struct FcCase {
  GemmBackend backend;
  bool bf16;
};

// Names each case by value ("tiled_bf16"); the default printer would dump
// the struct's bytes, padding included.
void PrintTo(const FcCase& c, std::ostream* os) {
  *os << to_string(c.backend) << (c.bf16 ? "_bf16" : "_fp32");
}

class AbftFcTest : public ::testing::TestWithParam<FcCase> {};

TEST_P(AbftFcTest, ForwardHealsInjectedFault) {
  const FcCase param = GetParam();
  comm::run_ranks(1, [&](comm::Communicator& world) {
    core::Grid4D grid(world, sim::GridShape{1, 1, 1, 1});

    core::FCOptions options;
    options.gemm_backend = param.backend;
    options.mixed_precision = param.bf16;

    Rng rng(9);
    const Matrix input = Matrix::randn(12, 16, rng);

    // Clean reference: same layer config, ABFT off.
    core::TensorParallelFC plain(grid, 16, 20, 77, options);
    const Matrix clean = plain.forward(plain.scatter_input(input));

    options.abft.mode = IntegrityMode::kHeal;
    core::TensorParallelFC fc(grid, 16, 20, 77, options);
    const CountersSnapshot before = counters().snapshot();
    AbftFaultPlan plan;
    plan.row = 3;
    plan.col = 4;
    arm_abft_fault(plan);
    const Matrix healed = fc.forward(fc.scatter_input(input));
    EXPECT_FALSE(disarm_abft_fault());  // the plan fired inside forward

    const CountersSnapshot after = counters().snapshot();
    EXPECT_EQ(after.sdc_detected - before.sdc_detected, 1u);
    EXPECT_EQ(after.sdc_recovered - before.sdc_recovered, 1u);

    EXPECT_EQ(clean.storage(), healed.storage());
  });
}

TEST_P(AbftFcTest, CleanForwardBackwardNeverFalsePositives) {
  const FcCase param = GetParam();
  comm::run_ranks(1, [&](comm::Communicator& world) {
    core::Grid4D grid(world, sim::GridShape{1, 1, 1, 1});

    core::FCOptions options;
    options.gemm_backend = param.backend;
    options.mixed_precision = param.bf16;
    options.abft.mode = IntegrityMode::kDetect;
    core::TensorParallelFC fc(grid, 16, 20, 77, options);

    Rng rng(10);
    const Matrix input = Matrix::randn(12, 16, rng);
    const Matrix dout = Matrix::randn(12, 20, rng);
    const CountersSnapshot before = counters().snapshot();
    for (int step = 0; step < 3; ++step) {
      const Matrix out = fc.forward(fc.scatter_input(input));
      EXPECT_EQ(out.rows(), 12u);
      fc.backward(dout);
      fc.finish_gradients();
    }
    const CountersSnapshot after = counters().snapshot();
    // 3 steps x 3 GEMMs (forward NN, dI NT, dW TN), all checked, none flagged.
    EXPECT_EQ(after.abft_checks - before.abft_checks, 9u);
    EXPECT_EQ(after.abft_mismatches, before.abft_mismatches);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Paths, AbftFcTest,
    ::testing::Values(FcCase{GemmBackend::kReference, false},
                      FcCase{GemmBackend::kReference, true},
                      FcCase{GemmBackend::kTiled, false},
                      FcCase{GemmBackend::kTiled, true}));

TEST(IntegrityModeTest, ParseAndToStringRoundTrip) {
  EXPECT_EQ(parse_mode("off"), IntegrityMode::kOff);
  EXPECT_EQ(parse_mode("detect"), IntegrityMode::kDetect);
  EXPECT_EQ(parse_mode("heal"), IntegrityMode::kHeal);
  EXPECT_THROW(parse_mode("maybe"), Error);
  for (IntegrityMode m : {IntegrityMode::kOff, IntegrityMode::kDetect,
                          IntegrityMode::kHeal}) {
    EXPECT_EQ(parse_mode(to_string(m)), m);
  }
}

TEST(IntegrityModeTest, EffectiveModeWithoutOverrideIsConfigured) {
  // The test binaries run with AXONN_INTEGRITY unset (the env override is
  // cached per process, so this asserts the default-path behavior).
  if (!env_mode_override()) {
    EXPECT_EQ(effective_mode(IntegrityMode::kHeal), IntegrityMode::kHeal);
    EXPECT_EQ(effective_mode(IntegrityMode::kOff), IntegrityMode::kOff);
  } else {
    EXPECT_EQ(effective_mode(IntegrityMode::kOff), *env_mode_override());
  }
}

}  // namespace
}  // namespace axonn::integrity
