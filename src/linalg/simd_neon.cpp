// NEON kernel backend (aarch64). Arithmetic kernels use 4 x f32 / 2 x f64
// lanes with explicit mul-then-add so the axpy family stays bitwise
// identical to the scalar backend; the transcendental kernels
// (softmax_row / silu / jsd_acc) and the gather-style interp_grid alias
// the same portable loops as the scalar table — NEON has no gather, and a
// polynomial exp/log port buys little on the matrix sizes this repo runs.
// This translation unit compiles to the nullptr stub on non-ARM targets.
#include "linalg/simd.hpp"

#if defined(__ARM_NEON) && defined(__aarch64__)

#include <arm_neon.h>

#include <cmath>

namespace surro::linalg::simd {
namespace {

void axpy_f32_neon(float a, const float* x, float* y, std::size_t n) {
  const float32x4_t va = vdupq_n_f32(a);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t prod = vmulq_f32(va, vld1q_f32(x + i));
    vst1q_f32(y + i, vaddq_f32(vld1q_f32(y + i), prod));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void acc_f32_neon(const float* x, float* y, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(y + i, vaddq_f32(vld1q_f32(y + i), vld1q_f32(x + i)));
  }
  for (; i < n; ++i) y[i] += x[i];
}

void add_f32_neon(const float* a, const float* b, float* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(out + i, vaddq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] + b[i];
}

void sub_f32_neon(const float* a, const float* b, float* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(out + i, vsubq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] - b[i];
}

void mul_f32_neon(const float* a, const float* b, float* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(out + i, vmulq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

void scale_f32_neon(float a, float* x, std::size_t n) {
  const float32x4_t va = vdupq_n_f32(a);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(x + i, vmulq_f32(vld1q_f32(x + i), va));
  }
  for (; i < n; ++i) x[i] *= a;
}

// MR=4 x NR=4 register tile, accumulators seeded from C, k-ascending per
// element with mul-then-add — the same chains as the scalar micro-kernel.
void gemm_block_f32_neon(const float* a, std::size_t lda, const float* b,
                         std::size_t ldb, float* c, std::size_t ldc,
                         std::size_t m, std::size_t k, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const float* a0 = a + i * lda;
    const float* a1 = a0 + lda;
    const float* a2 = a1 + lda;
    const float* a3 = a2 + lda;
    float* c0 = c + i * ldc;
    float* c1 = c0 + ldc;
    float* c2 = c1 + ldc;
    float* c3 = c2 + ldc;
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      float32x4_t acc0 = vld1q_f32(c0 + j);
      float32x4_t acc1 = vld1q_f32(c1 + j);
      float32x4_t acc2 = vld1q_f32(c2 + j);
      float32x4_t acc3 = vld1q_f32(c3 + j);
      for (std::size_t p = 0; p < k; ++p) {
        const float av0 = a0[p];
        const float av1 = a1[p];
        const float av2 = a2[p];
        const float av3 = a3[p];
        if (av0 == 0.0f && av1 == 0.0f && av2 == 0.0f && av3 == 0.0f)
          continue;
        // Per-row skip mirrors the scalar reference exactly (including the
        // sign of zero) and is independent of tile grouping.
        const float32x4_t bv = vld1q_f32(b + p * ldb + j);
        if (av0 != 0.0f) acc0 = vaddq_f32(acc0, vmulq_f32(vdupq_n_f32(av0), bv));
        if (av1 != 0.0f) acc1 = vaddq_f32(acc1, vmulq_f32(vdupq_n_f32(av1), bv));
        if (av2 != 0.0f) acc2 = vaddq_f32(acc2, vmulq_f32(vdupq_n_f32(av2), bv));
        if (av3 != 0.0f) acc3 = vaddq_f32(acc3, vmulq_f32(vdupq_n_f32(av3), bv));
      }
      vst1q_f32(c0 + j, acc0);
      vst1q_f32(c1 + j, acc1);
      vst1q_f32(c2 + j, acc2);
      vst1q_f32(c3 + j, acc3);
    }
    if (j < n) {
      for (std::size_t r = 0; r < 4; ++r) {
        const float* ar = a + (i + r) * lda;
        float* cr = c + (i + r) * ldc;
        for (std::size_t p = 0; p < k; ++p) {
          const float av = ar[p];
          if (av == 0.0f) continue;
          const float* br = b + p * ldb;
          for (std::size_t jj = j; jj < n; ++jj) cr[jj] += av * br[jj];
        }
      }
    }
  }
  for (; i < m; ++i) {
    const float* ar = a + i * lda;
    float* cr = c + i * ldc;
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      float32x4_t acc = vld1q_f32(cr + j);
      for (std::size_t p = 0; p < k; ++p) {
        const float av = ar[p];
        if (av == 0.0f) continue;
        acc = vaddq_f32(acc,
                        vmulq_f32(vdupq_n_f32(av), vld1q_f32(b + p * ldb + j)));
      }
      vst1q_f32(cr + j, acc);
    }
    if (j < n) {
      for (std::size_t p = 0; p < k; ++p) {
        const float av = ar[p];
        if (av == 0.0f) continue;
        const float* br = b + p * ldb;
        for (std::size_t jj = j; jj < n; ++jj) cr[jj] += av * br[jj];
      }
    }
  }
}

float dot_f32_neon(const float* a, const float* b, std::size_t n) {
  float32x4_t acc = vdupq_n_f32(0.0f);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = vfmaq_f32(acc, vld1q_f32(a + i), vld1q_f32(b + i));
  }
  float r = vaddvq_f32(acc);
  for (; i < n; ++i) r += a[i] * b[i];
  return r;
}

float sq_l2_f32_neon(const float* a, const float* b, std::size_t n) {
  float32x4_t acc = vdupq_n_f32(0.0f);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t d = vsubq_f32(vld1q_f32(a + i), vld1q_f32(b + i));
    acc = vfmaq_f32(acc, d, d);
  }
  float r = vaddvq_f32(acc);
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    r += d * d;
  }
  return r;
}

void softmax_row_f32_neon(float* row, std::size_t n) {
  // Portable loop (same semantics as the scalar table): a NEON polynomial
  // exp gains little at these row widths and would add a second ULP class.
  if (n == 0) return;
  float mx = row[0];
  for (std::size_t i = 1; i < n; ++i) mx = std::max(mx, row[i]);
  float sum = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    row[i] = std::exp(row[i] - mx);
    sum += row[i];
  }
  for (std::size_t i = 0; i < n; ++i) row[i] /= sum;
}

void silu_f32_neon(const float* x, float* out, std::size_t n) {
  // Portable loop, like softmax_row above: same bytes as the scalar table.
  for (std::size_t i = 0; i < n; ++i) {
    const float s = 1.0f / (1.0f + std::exp(-x[i]));
    out[i] = x[i] * s;
  }
}

void normalize_f64_neon(const double* x, double shift, double denom,
                        double* out, std::size_t n) {
  const float64x2_t vs = vdupq_n_f64(shift);
  const float64x2_t vd = vdupq_n_f64(denom);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(out + i, vdivq_f64(vsubq_f64(vld1q_f64(x + i), vs), vd));
  }
  for (; i < n; ++i) out[i] = (x[i] - shift) / denom;
}

void madd_f64_neon(const double* x, double a, double b, double* out,
                   std::size_t n) {
  const float64x2_t va = vdupq_n_f64(a);
  const float64x2_t vb = vdupq_n_f64(b);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(out + i, vaddq_f64(vmulq_f64(vld1q_f64(x + i), va), vb));
  }
  for (; i < n; ++i) out[i] = x[i] * a + b;
}

void interp_grid_f64_neon(const double* q, std::size_t grid_n,
                          const double* p, double* out, std::size_t n) {
  // No gather on NEON; the portable loop is already load-bound here.
  const double scale = (double)(grid_n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    double pv = p[i];
    if (pv < 0.0) pv = 0.0;
    if (pv > 1.0) pv = 1.0;
    const double pos = pv * scale;
    std::size_t cell = (std::size_t)pos;
    if (cell > grid_n - 2) cell = grid_n - 2;
    const double frac = pos - (double)cell;
    out[i] = q[cell] * (1.0 - frac) + q[cell + 1] * frac;
  }
}

double jsd_acc_f64_neon(const double* p, const double* q, std::size_t n) {
  // Portable loop; log() dominates and stays in libm on this backend.
  const double log2e = 1.0 / std::log(2.0);
  double jsd = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double m = 0.5 * (p[i] + q[i]);
    if (p[i] > 0.0) jsd += 0.5 * p[i] * std::log(p[i] / m) * log2e;
    if (q[i] > 0.0) jsd += 0.5 * q[i] * std::log(q[i] / m) * log2e;
  }
  return jsd;
}

const Kernels kNeonKernels = {
    axpy_f32_neon,        acc_f32_neon,        add_f32_neon,
    sub_f32_neon,         mul_f32_neon,        scale_f32_neon,
    gemm_block_f32_neon,  dot_f32_neon,        sq_l2_f32_neon,
    softmax_row_f32_neon, silu_f32_neon,       normalize_f64_neon,
    madd_f64_neon,        interp_grid_f64_neon, jsd_acc_f64_neon,
};

}  // namespace

const Kernels* neon_kernels_table() noexcept { return &kNeonKernels; }

}  // namespace surro::linalg::simd

#else  // !__ARM_NEON

namespace surro::linalg::simd {
const Kernels* neon_kernels_table() noexcept { return nullptr; }
}  // namespace surro::linalg::simd

#endif
