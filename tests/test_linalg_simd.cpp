// SIMD kernel layer: scalar-vs-vectorized agreement for every kernel in the
// dispatch table (bitwise for the axpy family, documented-ULP for the
// dot/transcendental families), ragged tail sizes, backend selection API,
// and per-backend thread-count bitwise determinism end to end.

#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/ops.hpp"
#include "linalg/simd.hpp"
#include "linalg/simd_detail.hpp"
#include "models/generator.hpp"
#include "serve/model_host.hpp"
#include "serve/replay.hpp"
#include "serve/sample_service.hpp"
#include "tabular/table.hpp"
#include "util/rng.hpp"

namespace surro::linalg::simd {
namespace {

// Tail coverage: 1, primes, vector width +/- 1 for both 4- and 8-lane
// backends, and a couple of larger composite sizes.
const std::size_t kSizes[] = {1, 2, 3, 5, 7, 8, 9, 13, 16, 17, 31, 64, 67};

std::vector<float> random_f32(std::size_t n, util::Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.normal());
  return v;
}

std::vector<double> random_f64(std::size_t n, util::Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.normal();
  return v;
}

std::vector<Backend> vector_backends() {
  std::vector<Backend> out;
  for (const Backend b : available_backends()) {
    if (b != Backend::kScalar) out.push_back(b);
  }
  return out;
}

// Restores the startup backend when a test that forces backends exits.
struct BackendGuard {
  Backend saved = active_backend();
  ~BackendGuard() { force_backend(saved); }
};

// ------------------------------------------------------------ selection API

TEST(SimdBackend, NamesRoundTrip) {
  EXPECT_STREQ(backend_name(Backend::kScalar), "scalar");
  EXPECT_STREQ(backend_name(Backend::kAvx2), "avx2");
  EXPECT_STREQ(backend_name(Backend::kNeon), "neon");
  EXPECT_EQ(parse_backend("scalar"), Backend::kScalar);
  EXPECT_EQ(parse_backend("avx2"), Backend::kAvx2);
  EXPECT_EQ(parse_backend("neon"), Backend::kNeon);
  EXPECT_THROW((void)parse_backend("sse9"), std::invalid_argument);
}

TEST(SimdBackend, ScalarAlwaysAvailable) {
  EXPECT_TRUE(backend_available(Backend::kScalar));
  const auto all = available_backends();
  ASSERT_FALSE(all.empty());
  EXPECT_EQ(all.front(), Backend::kScalar);
  // "auto" resolves to something available.
  EXPECT_TRUE(backend_available(parse_backend("auto")));
  // The active backend is available and its table is reachable.
  EXPECT_TRUE(backend_available(active_backend()));
  EXPECT_STREQ(active_backend_name(), backend_name(active_backend()));
  (void)kernels_for(Backend::kScalar);
}

TEST(SimdBackend, ForceBackendSwitchesAndThrows) {
  BackendGuard guard;
  for (const Backend b : available_backends()) {
    force_backend(b);
    EXPECT_EQ(active_backend(), b);
    EXPECT_EQ(&kernels(), &kernels_for(b));
  }
  for (const Backend b : {Backend::kAvx2, Backend::kNeon}) {
    if (!backend_available(b)) {
      EXPECT_THROW(force_backend(b), std::invalid_argument);
      EXPECT_THROW((void)kernels_for(b), std::invalid_argument);
    }
  }
}

// -------------------------------------------- axpy family: bitwise-vs-scalar

TEST(SimdKernels, AxpyFamilyBitwise) {
  const Kernels& ref = kernels_for(Backend::kScalar);
  util::Rng rng(11);
  for (const Backend backend : vector_backends()) {
    const Kernels& k = kernels_for(backend);
    for (const std::size_t n : kSizes) {
      const auto a = random_f32(n, rng);
      const auto b = random_f32(n, rng);
      const float alpha = static_cast<float>(rng.normal());

      auto y0 = random_f32(n, rng);
      auto y1 = y0;
      ref.axpy_f32(alpha, a.data(), y0.data(), n);
      k.axpy_f32(alpha, a.data(), y1.data(), n);
      ASSERT_EQ(0, std::memcmp(y0.data(), y1.data(), n * sizeof(float)))
          << "axpy n=" << n << " backend=" << backend_name(backend);

      auto z0 = b;
      auto z1 = b;
      ref.acc_f32(a.data(), z0.data(), n);
      k.acc_f32(a.data(), z1.data(), n);
      ASSERT_EQ(0, std::memcmp(z0.data(), z1.data(), n * sizeof(float)));

      std::vector<float> o0(n), o1(n);
      ref.add_f32(a.data(), b.data(), o0.data(), n);
      k.add_f32(a.data(), b.data(), o1.data(), n);
      ASSERT_EQ(0, std::memcmp(o0.data(), o1.data(), n * sizeof(float)));
      ref.sub_f32(a.data(), b.data(), o0.data(), n);
      k.sub_f32(a.data(), b.data(), o1.data(), n);
      ASSERT_EQ(0, std::memcmp(o0.data(), o1.data(), n * sizeof(float)));
      ref.mul_f32(a.data(), b.data(), o0.data(), n);
      k.mul_f32(a.data(), b.data(), o1.data(), n);
      ASSERT_EQ(0, std::memcmp(o0.data(), o1.data(), n * sizeof(float)));

      auto s0 = a;
      auto s1 = a;
      ref.scale_f32(alpha, s0.data(), n);
      k.scale_f32(alpha, s1.data(), n);
      ASSERT_EQ(0, std::memcmp(s0.data(), s1.data(), n * sizeof(float)));
    }
  }
}

// One GEMM micro-kernel under test: a backend's table entry, or one of the
// x86 register tiles by name (so the tile this CPU does not dispatch to is
// checked too).
struct GemmUnderTest {
  std::string name;
  detail::GemmBlockFn fn;
  bool fused;  // std::fma chain (x86 tiles) or mul-then-add (scalar, NEON)
};

// Every vector backend's table, then both x86 tiles. Sets `zmm_missing`
// when this CPU cannot run the zmm tile, so the caller can say so.
std::vector<GemmUnderTest> gemm_kernels_under_test(bool& zmm_missing) {
  std::vector<GemmUnderTest> out;
  for (const Backend backend : vector_backends()) {
    out.push_back({backend_name(backend),
                   kernels_for(backend).gemm_block_f32,
                   backend == Backend::kAvx2});
  }
  if (const auto ymm = detail::gemm_tile_ymm6x16()) {
    out.push_back({"ymm6x16", ymm, true});
  }
  const auto zmm = detail::gemm_tile_zmm8x32();
  zmm_missing = zmm == nullptr;
  if (!zmm_missing) out.push_back({"zmm8x32", zmm, true});
  return out;
}

constexpr const char* kNoZmm =
    "this CPU lacks avx512f: the zmm8x32 GEMM tile was not checked";

// gemm_block is in the dot family: vector backends fuse multiply-add, so
// agreement with scalar is close-with-tolerance, not bitwise. What IS
// bitwise is thread-chunk independence, checked below: splitting the same
// row panel at any tile-misaligned boundary must reproduce the unsplit
// bytes exactly (every row tile and column block computes the same chains).
TEST(SimdKernels, GemmBlockCloseToScalarAndChunkInvariant) {
  const Kernels& ref = kernels_for(Backend::kScalar);
  util::Rng rng(23);
  const std::size_t ms[] = {1, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 16, 17};
  const std::size_t ns[] = {1, 7, 8, 9, 17, 31, 33, 47, 90};
  const std::size_t ks[] = {1, 5, 64};
  bool zmm_missing = false;
  for (const GemmUnderTest& kern : gemm_kernels_under_test(zmm_missing)) {
    for (const std::size_t m : ms) {
      for (const std::size_t n : ns) {
        for (const std::size_t k : ks) {
          auto a = random_f32(m * k, rng);
          const auto b = random_f32(k * n, rng);
          // Exercise the sparsity skip: zero out a fraction of A.
          for (float& v : a) {
            if (rng.uniform() < 0.3) v = 0.0f;
          }
          const auto cinit = random_f32(m * n, rng);
          auto c0 = cinit;
          auto c1 = cinit;
          ref.gemm_block_f32(a.data(), k, b.data(), n, c0.data(), n, m, k, n);
          kern.fn(a.data(), k, b.data(), n, c1.data(), n, m, k, n);
          for (std::size_t e = 0; e < m * n; ++e) {
            ASSERT_NEAR(c0[e], c1[e], 1e-4f * (1.0f + std::abs(c0[e])))
                << "gemm_block m=" << m << " n=" << n << " k=" << k
                << " kernel=" << kern.name;
          }
          // Chunk invariance: process rows [0,split) and [split,m) as two
          // calls — how parallel callers hand out row ranges — and require
          // bytes identical to the single-call result.
          for (const std::size_t split : {std::size_t{1}, m / 2, m - 1}) {
            if (split == 0 || split >= m) continue;
            auto parts = cinit;
            kern.fn(a.data(), k, b.data(), n, parts.data(), n, split, k, n);
            kern.fn(a.data() + split * k, k, b.data(), n,
                    parts.data() + split * n, n, m - split, k, n);
            ASSERT_EQ(0, std::memcmp(c1.data(), parts.data(),
                                     m * n * sizeof(float)))
                << "split=" << split << " m=" << m << " n=" << n
                << " k=" << k << " kernel=" << kern.name;
          }
        }
      }
    }
  }
  if (zmm_missing) GTEST_SKIP() << kNoZmm;
}

TEST(SimdKernels, F64ElementwiseBitwise) {
  const Kernels& ref = kernels_for(Backend::kScalar);
  util::Rng rng(31);
  for (const Backend backend : vector_backends()) {
    const Kernels& k = kernels_for(backend);
    for (const std::size_t n : kSizes) {
      const auto x = random_f64(n, rng);
      const double shift = rng.normal();
      const double denom = 1.0 + std::abs(rng.normal());
      std::vector<double> o0(n), o1(n);
      ref.normalize_f64(x.data(), shift, denom, o0.data(), n);
      k.normalize_f64(x.data(), shift, denom, o1.data(), n);
      ASSERT_EQ(0, std::memcmp(o0.data(), o1.data(), n * sizeof(double)))
          << "normalize n=" << n;
      ref.madd_f64(x.data(), denom, shift, o0.data(), n);
      k.madd_f64(x.data(), denom, shift, o1.data(), n);
      ASSERT_EQ(0, std::memcmp(o0.data(), o1.data(), n * sizeof(double)))
          << "madd n=" << n;
    }
  }
}

TEST(SimdKernels, InterpGridBitwise) {
  const Kernels& ref = kernels_for(Backend::kScalar);
  util::Rng rng(37);
  // Ascending quantile grid, probabilities covering interior, clamped
  // (<0, >1), and exact-boundary values.
  for (const Backend backend : vector_backends()) {
    const Kernels& k = kernels_for(backend);
    for (const std::size_t grid_n : {2u, 5u, 100u, 1000u}) {
      std::vector<double> q(grid_n);
      double acc = -3.0;
      for (double& v : q) {
        acc += std::abs(rng.normal());
        v = acc;
      }
      for (const std::size_t n : kSizes) {
        std::vector<double> p(n);
        for (std::size_t i = 0; i < n; ++i) {
          const double u = rng.uniform();
          p[i] = u < 0.1 ? -0.5 : (u > 0.9 ? 1.5 : rng.uniform());
        }
        if (n > 2) {
          p[0] = 0.0;
          p[1] = 1.0;
          p[2] = 0.5;
        }
        std::vector<double> o0(n), o1(n);
        ref.interp_grid_f64(q.data(), grid_n, p.data(), o0.data(), n);
        k.interp_grid_f64(q.data(), grid_n, p.data(), o1.data(), n);
        ASSERT_EQ(0, std::memcmp(o0.data(), o1.data(), n * sizeof(double)))
            << "interp grid_n=" << grid_n << " n=" << n;
      }
    }
  }
}

// ------------------------------- dot/transcendental: documented-ULP classes

// The reference chain of one gemm_block element: seeded from C, one step
// per nonzero A value in ascending k, fused (std::fma) or mul-then-add.
void gemm_chain_reference(const float* a, const float* b, float* c,
                          std::size_t m, std::size_t k, std::size_t n,
                          bool fused) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = c[i * n + j];
      for (std::size_t p = 0; p < k; ++p) {
        const float av = a[i * k + p];
        if (av == 0.0f) continue;
        acc = fused ? std::fma(av, b[p * n + j], acc)
                    : acc + av * b[p * n + j];
      }
      c[i * n + j] = acc;
    }
  }
}

// Pins gemm_block's bytes, not just its closeness: both x86 tiles (and the
// avx2 table, whichever tile it picked) must equal the std::fma chain
// exactly, and NEON (mul-then-add lanes) the unfused chain. m = 1..24
// covers every mix of the ymm tile's 6-, 4- and 1-row tiles and the zmm
// tile's 8-, 4- and 1-row tiles; the n values hit the ymm 16-wide, 8-wide
// and masked blocks and the zmm 32-wide and masked 16- and 32-wide blocks.
TEST(SimdKernels, GemmBlockIsTheReferenceChain) {
  util::Rng rng(29);
  const std::size_t ns[] = {1,  2,  7,  8,  9,  15, 16, 17, 31,
                            32, 33, 47, 48, 64, 65, 90, 256};
  const std::size_t ks[] = {1, 5, 64, 122, 256};
  bool zmm_missing = false;
  for (const GemmUnderTest& kern : gemm_kernels_under_test(zmm_missing)) {
    for (std::size_t m = 1; m <= 24; ++m) {
      for (const std::size_t n : ns) {
        for (const std::size_t k : ks) {
          auto a = random_f32(m * k, rng);
          for (float& v : a) {
            if (rng.uniform() < 0.4) v = 0.0f;
          }
          const auto b = random_f32(k * n, rng);
          auto want = random_f32(m * n, rng);
          auto got = want;
          gemm_chain_reference(a.data(), b.data(), want.data(), m, k, n,
                               kern.fused);
          kern.fn(a.data(), k, b.data(), n, got.data(), n, m, k, n);
          ASSERT_EQ(0, std::memcmp(want.data(), got.data(),
                                   m * n * sizeof(float)))
              << "m=" << m << " n=" << n << " k=" << k
              << " kernel=" << kern.name;
        }
      }
    }
  }
  if (zmm_missing) GTEST_SKIP() << kNoZmm;
}

// Today's SiLU expression, the scalar kernel's bitwise contract.
float silu_reference(float x) {
  const float s = 1.0f / (1.0f + std::exp(-x));
  return x * s;
}

// Distance in representable floats (sign-magnitude mapped to a line).
std::int64_t ulp_distance(float a, float b) {
  const auto line = [](float v) {
    std::int32_t i;
    std::memcpy(&i, &v, sizeof(i));
    return i < 0 ? std::int64_t{INT32_MIN} - i : std::int64_t{i};
  };
  const std::int64_t d = line(a) - line(b);
  return d < 0 ? -d : d;
}

TEST(SimdKernels, SiluScalarIsBitwiseTheSeedLoop) {
  const Kernels& ref = kernels_for(Backend::kScalar);
  util::Rng rng(31);
  auto x = random_f32(257, rng);
  for (float& v : x) v *= 8.0f;
  x.insert(x.end(), {0.0f, -0.0f, 1e-3f, -1e-3f, 20.0f, -20.0f, 100.0f,
                     -100.0f});
  std::vector<float> out(x.size());
  ref.silu_f32(x.data(), out.data(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const float want = silu_reference(x[i]);
    ASSERT_EQ(0, std::memcmp(&want, &out[i], sizeof(float))) << "x=" << x[i];
  }
}

TEST(SimdKernels, SiluCloseOnEveryLengthAndTheClamp) {
  const Kernels& ref = kernels_for(Backend::kScalar);
  util::Rng rng(37);
  const float specials[] = {0.0f, 1e-3f, -1e-3f, 1.0f, -1.0f,
                            20.0f, -20.0f, 100.0f, -100.0f};
  for (const Backend backend : vector_backends()) {
    const Kernels& k = kernels_for(backend);
    std::vector<std::size_t> lengths(std::begin(kSizes), std::end(kSizes));
    lengths.push_back(0);
    for (const std::size_t n : lengths) {
      auto x = random_f32(n, rng);
      for (std::size_t i = 0; i < n; ++i) {
        x[i] = i % 3 == 0 ? specials[(i / 3) % std::size(specials)]
                          : x[i] * 6.0f;
      }
      std::vector<float> want(n), got(n + 1, 42.0f);
      ref.silu_f32(x.data(), want.data(), n);
      k.silu_f32(x.data(), got.data(), n);
      EXPECT_EQ(got[n], 42.0f) << "wrote past n=" << n;
      for (std::size_t i = 0; i < n; ++i) {
        // Documented-ULP class: polynomial exp vs libm expf. Below 1e-30
        // the two differ in how they reach zero — libm's expf overflows to
        // inf past 88.72 where the polynomial clamps its argument — and
        // both are zero for any use.
        EXPECT_TRUE(ulp_distance(want[i], got[i]) <= 4 ||
                    std::abs(want[i] - got[i]) < 1e-30f)
            << "silu x=" << x[i] << " scalar=" << want[i]
            << " vector=" << got[i] << " n=" << n
            << " backend=" << backend_name(backend);
      }
    }
  }
}

TEST(SimdKernels, DotFamilyClose) {
  const Kernels& ref = kernels_for(Backend::kScalar);
  util::Rng rng(41);
  for (const Backend backend : vector_backends()) {
    const Kernels& k = kernels_for(backend);
    for (const std::size_t n : kSizes) {
      const auto a = random_f32(n, rng);
      const auto b = random_f32(n, rng);
      const float d0 = ref.dot_f32(a.data(), b.data(), n);
      const float d1 = k.dot_f32(a.data(), b.data(), n);
      EXPECT_NEAR(d0, d1, 1e-4f * (1.0f + std::abs(d0))) << "dot n=" << n;
      const float s0 = ref.sq_l2_f32(a.data(), b.data(), n);
      const float s1 = k.sq_l2_f32(a.data(), b.data(), n);
      EXPECT_NEAR(s0, s1, 1e-4f * (1.0f + s0)) << "sq_l2 n=" << n;
      EXPECT_GE(s1, 0.0f);
    }
  }
}

TEST(SimdKernels, SoftmaxRowCloseAndNormalized) {
  const Kernels& ref = kernels_for(Backend::kScalar);
  util::Rng rng(43);
  for (const Backend backend : vector_backends()) {
    const Kernels& k = kernels_for(backend);
    for (const std::size_t n : kSizes) {
      auto r0 = random_f32(n, rng);
      for (float& v : r0) v *= 5.0f;  // spread the exponent range
      auto r1 = r0;
      ref.softmax_row_f32(r0.data(), n);
      k.softmax_row_f32(r1.data(), n);
      float sum = 0.0f;
      for (std::size_t i = 0; i < n; ++i) {
        // Documented-ULP class: polynomial exp vs libm expf.
        EXPECT_NEAR(r0[i], r1[i], 2e-6f) << "softmax n=" << n << " i=" << i;
        sum += r1[i];
      }
      EXPECT_NEAR(sum, 1.0f, 1e-5f);
    }
  }
}

// A NaN logit poisons the whole row on every backend, as the scalar
// std::exp loop does: the vector exp must not clamp NaN to a finite value.
// 12 wide puts the NaN in the 8-wide vector part or the scalar tail.
TEST(SimdKernels, SoftmaxRowPropagatesNaNOnEveryBackend) {
  constexpr std::size_t kWidth = 12;
  for (const Backend backend : available_backends()) {
    const Kernels& k = kernels_for(backend);
    for (std::size_t at = 0; at < kWidth; ++at) {
      std::vector<float> row(kWidth, 0.5f);
      row[at] = std::nanf("");
      k.softmax_row_f32(row.data(), kWidth);
      for (std::size_t i = 0; i < kWidth; ++i) {
        EXPECT_TRUE(std::isnan(row[i]))
            << "NaN at " << at << " gave " << row[i] << " at " << i
            << " backend=" << backend_name(backend);
      }
    }
  }
}

TEST(SimdKernels, JsdAccClose) {
  const Kernels& ref = kernels_for(Backend::kScalar);
  util::Rng rng(47);
  for (const Backend backend : vector_backends()) {
    const Kernels& k = kernels_for(backend);
    for (const std::size_t n : kSizes) {
      std::vector<double> p(n), q(n);
      double ps = 0.0, qs = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        // Sparse histograms: exercise the p>0 / q>0 masking.
        p[i] = rng.uniform() < 0.3 ? 0.0 : rng.uniform();
        q[i] = rng.uniform() < 0.3 ? 0.0 : rng.uniform();
        ps += p[i];
        qs += q[i];
      }
      if (ps > 0.0) {
        for (double& v : p) v /= ps;
      }
      if (qs > 0.0) {
        for (double& v : q) v /= qs;
      }
      const double j0 = ref.jsd_acc_f64(p.data(), q.data(), n);
      const double j1 = k.jsd_acc_f64(p.data(), q.data(), n);
      // Documented-ULP class: polynomial log vs libm log.
      EXPECT_NEAR(j0, j1, 1e-12 * (1.0 + std::abs(j0))) << "jsd n=" << n;
    }
  }
}

// ---------------------------------------- ops layer: backends stay in sync

TEST(SimdOps, GemmFamilyMatchesScalarBackend) {
  BackendGuard guard;
  util::Rng rng(53);
  Matrix a(13, 37), b(37, 21), at(13, 37);
  for (float& v : a.flat()) v = static_cast<float>(rng.normal());
  for (float& v : b.flat()) v = rng.uniform() < 0.2 ? 0.0f
                                 : static_cast<float>(rng.normal());
  for (float& v : at.flat()) v = static_cast<float>(rng.normal());

  force_backend(Backend::kScalar);
  Matrix g0, tn0;
  gemm(a, b, g0);
  gemm_tn(at, b, tn0);
  for (const Backend backend : vector_backends()) {
    force_backend(backend);
    Matrix g1, tn1;
    gemm(a, b, g1);
    gemm_tn(at, b, tn1);
    // gemm dispatches gemm_block (dot family: FMA, close not bitwise);
    // gemm_tn dispatches axpy (bitwise across backends).
    for (std::size_t e = 0; e < g0.size(); ++e) {
      ASSERT_NEAR(g0.data()[e], g1.data()[e],
                  1e-4f * (1.0f + std::abs(g0.data()[e])))
          << "gemm vs scalar, backend=" << backend_name(backend);
    }
    ASSERT_EQ(0, std::memcmp(tn0.data(), tn1.data(),
                             tn0.size() * sizeof(float)))
        << "gemm_tn vs scalar, backend=" << backend_name(backend);
  }
}

// ------------------------------- thread-count determinism, per backend, e2e

TEST(SimdDeterminism, SampledBytesIdenticalAcrossThreadCounts) {
  BackendGuard guard;
  // Tiny mixed training table.
  tabular::Schema schema({{"x", tabular::ColumnKind::kNumerical},
                          {"site", tabular::ColumnKind::kCategorical},
                          {"y", tabular::ColumnKind::kNumerical}});
  tabular::Table train(schema);
  util::Rng rng(61);
  for (std::size_t i = 0; i < 300; ++i) {
    auto row = train.make_row();
    row.set(0, rng.normal());
    row.set(1, std::string(rng.bernoulli(0.5) ? "BNL" : "CERN"));
    row.set(2, rng.normal(3.0, 0.5));
    train.append_row(row);
  }
  models::TrainBudget budget;
  budget.epochs = 2;
  budget.batch_size = 64;

  for (const Backend backend : available_backends()) {
    force_backend(backend);
    for (const std::string key : {"tvae", "smote", "tabddpm"}) {
      auto model = models::make_generator(key, budget, 7);
      model->fit(train);
      // TabDDPM samples through Mlp::infer with per-call scratch, so its
      // chunks share this one instance instead of per-worker clones.
      if (key == "tabddpm") EXPECT_TRUE(model->concurrent_sampling());
      std::uint64_t digests[3] = {};
      std::size_t idx = 0;
      for (const std::size_t threads : {1u, 2u, 4u}) {
        models::SampleRequest req;
        req.rows = 257;  // non-multiple of chunk size
        req.seed = 99;
        req.chunk_rows = 64;
        req.threads = threads;
        tabular::Table out;
        model->sample_into(out, req);
        digests[idx++] = serve::hash_table(out);
      }
      EXPECT_EQ(digests[0], digests[1])
          << key << " backend=" << backend_name(backend);
      EXPECT_EQ(digests[0], digests[2])
          << key << " backend=" << backend_name(backend);
    }
  }
}

// The serving path assembles a job from the same chunks sample_into draws:
// at ddpm-inproc's 16-row chunks the bytes must agree at every fan-out.
TEST(SimdDeterminism, TabDdpmServiceBytesEqualSampleIntoAtChunk16) {
  BackendGuard guard;
  tabular::Schema schema({{"x", tabular::ColumnKind::kNumerical},
                          {"site", tabular::ColumnKind::kCategorical},
                          {"status", tabular::ColumnKind::kCategorical}});
  tabular::Table train(schema);
  util::Rng rng(67);
  const char* sites[] = {"BNL", "CERN", "RAL", "TRIUMF", "NDGF"};
  for (std::size_t i = 0; i < 300; ++i) {
    auto row = train.make_row();
    row.set(0, rng.normal());
    row.set(1, std::string(sites[rng.uniform_index(5)]));
    row.set(2, std::string(rng.bernoulli(0.8) ? "finished" : "failed"));
    train.append_row(row);
  }
  models::TrainBudget budget;
  budget.epochs = 2;
  budget.batch_size = 64;

  for (const Backend backend : available_backends()) {
    force_backend(backend);
    std::shared_ptr<models::TabularGenerator> model =
        models::make_generator("tabddpm", budget, 7);
    model->fit(train);
    serve::ModelHost host;
    host.register_fitted("tabddpm", model);
    for (const std::size_t threads : {1u, 2u, 4u}) {
      models::SampleRequest req;
      req.rows = 250;  // 15 full chunks and a 10-row tail
      req.seed = 31;
      req.chunk_rows = 16;
      req.threads = threads;
      tabular::Table direct;
      model->sample_into(direct, req);

      serve::ServiceConfig cfg;
      cfg.sample_threads = threads;
      serve::SampleService service(host, cfg);
      serve::SampleJob job;
      job.model_key = "tabddpm";
      job.rows = req.rows;
      job.seed = req.seed;
      job.chunk_rows = req.chunk_rows;
      const tabular::Table served = service.sample(job);
      ASSERT_EQ(served.num_rows(), req.rows);
      EXPECT_EQ(serve::hash_table(served), serve::hash_table(direct))
          << "threads " << threads << " backend=" << backend_name(backend);
    }
  }
}

}  // namespace
}  // namespace surro::linalg::simd
