#include "axonn/tensor/gemm.hpp"

#include <algorithm>

#include "axonn/tensor/bf16.hpp"

namespace axonn {

const char* to_string(GemmMode mode) {
  switch (mode) {
    case GemmMode::kNN: return "NN";
    case GemmMode::kNT: return "NT";
    case GemmMode::kTN: return "TN";
    case GemmMode::kTT: return "TT";
  }
  return "??";
}

const char* to_string(GemmBackend backend) {
  switch (backend) {
    case GemmBackend::kReference: return "reference";
    case GemmBackend::kTiled: return "tiled";
  }
  return "??";
}

GemmShape gemm_shape(GemmMode mode, const Matrix& a, const Matrix& b) {
  const bool ta = (mode == GemmMode::kTN || mode == GemmMode::kTT);
  const bool tb = (mode == GemmMode::kNT || mode == GemmMode::kTT);
  const std::size_t m = ta ? a.cols() : a.rows();
  const std::size_t ka = ta ? a.rows() : a.cols();
  const std::size_t kb = tb ? b.cols() : b.rows();
  const std::size_t n = tb ? b.rows() : b.cols();
  AXONN_CHECK_MSG(ka == kb, std::string("GEMM inner dimensions mismatch in mode ") +
                                to_string(mode));
  return GemmShape{m, n, ka};
}

namespace {

// Kernel over a generic element loader. `load_a(i, l)` reads op(A)[i][l] and
// `load_b(l, j)` reads op(B)[l][j]. The loop nest is i-l-j so the innermost
// loop streams both op(B) rows and C rows contiguously for the NN layout,
// which keeps the fp32 path fast enough for the real training experiments.
template <typename LoadA, typename LoadB>
void gemm_kernel(const GemmShape& s, float alpha, LoadA load_a, LoadB load_b,
                 float beta, Matrix& c) {
  AXONN_CHECK_MSG(c.rows() == s.m && c.cols() == s.n,
                  "GEMM output shape does not match operands");
  if (beta == 0.0f) {
    c.set_zero();
  } else if (beta != 1.0f) {
    c.scale_inplace(beta);
  }
  // BLAS semantics: alpha == 0 means C = beta * C without reading A or B.
  // There is deliberately NO per-element zero skip below: 0 * NaN and
  // 0 * inf must produce NaN in C, or a poisoned activation silently
  // vanishes instead of propagating to the loss where it can be detected.
  if (alpha == 0.0f) return;
  for (std::size_t i = 0; i < s.m; ++i) {
    float* crow = c.row(i);
    for (std::size_t l = 0; l < s.k; ++l) {
      const float aval = alpha * load_a(i, l);
      for (std::size_t j = 0; j < s.n; ++j) {
        crow[j] += aval * load_b(l, j);
      }
    }
  }
}

template <bool kRoundBf16>
void gemm_impl(GemmMode mode, float alpha, const Matrix& a, const Matrix& b,
               float beta, Matrix& c) {
  const GemmShape s = gemm_shape(mode, a, b);
  const bool ta = (mode == GemmMode::kTN || mode == GemmMode::kTT);
  const bool tb = (mode == GemmMode::kNT || mode == GemmMode::kTT);

  auto load = [](const Matrix& m, std::size_t r, std::size_t col) {
    const float v = m(r, col);
    if constexpr (kRoundBf16) {
      return bf16_round(v);
    } else {
      return v;
    }
  };

  auto load_a = [&](std::size_t i, std::size_t l) {
    return ta ? load(a, l, i) : load(a, i, l);
  };
  auto load_b = [&](std::size_t l, std::size_t j) {
    return tb ? load(b, j, l) : load(b, l, j);
  };
  gemm_kernel(s, alpha, load_a, load_b, beta, c);
}

// Per-thread dispatch statistics (see gemm.hpp).
struct DispatchState {
  GemmStats last;
  std::uint64_t count = 0;
  std::uint64_t flops = 0;
};

thread_local DispatchState t_dispatch;

}  // namespace

const GemmStats& last_gemm_stats() { return t_dispatch.last; }
std::uint64_t gemm_dispatch_count() { return t_dispatch.count; }
std::uint64_t gemm_dispatch_flops() { return t_dispatch.flops; }
void reset_gemm_dispatch_stats() { t_dispatch = DispatchState{}; }

namespace detail {

void record_gemm_dispatch(GemmBackend backend, GemmMode mode,
                          const GemmShape& shape, bool bf16, GemmIsa isa,
                          int threads) {
  DispatchState& st = t_dispatch;
  st.last =
      GemmStats{backend, mode, shape, gemm_flops(shape), bf16, isa, threads};
  st.count += 1;
  st.flops += st.last.flops;
}

}  // namespace detail

void gemm(GemmMode mode, float alpha, const Matrix& a, const Matrix& b,
          float beta, Matrix& c) {
  detail::record_gemm_dispatch(GemmBackend::kReference, mode,
                               gemm_shape(mode, a, b), /*bf16=*/false);
  gemm_impl<false>(mode, alpha, a, b, beta, c);
}

Matrix gemm(GemmMode mode, const Matrix& a, const Matrix& b) {
  const GemmShape s = gemm_shape(mode, a, b);
  Matrix c(s.m, s.n);
  gemm(mode, 1.0f, a, b, 0.0f, c);
  return c;
}

void gemm_bf16(GemmMode mode, float alpha, const Matrix& a, const Matrix& b,
               float beta, Matrix& c) {
  detail::record_gemm_dispatch(GemmBackend::kReference, mode,
                               gemm_shape(mode, a, b), /*bf16=*/true);
  gemm_impl<true>(mode, alpha, a, b, beta, c);
}

Matrix gemm_bf16(GemmMode mode, const Matrix& a, const Matrix& b) {
  const GemmShape s = gemm_shape(mode, a, b);
  Matrix c(s.m, s.n);
  gemm_bf16(mode, 1.0f, a, b, 0.0f, c);
  return c;
}

}  // namespace axonn
