// AVX2 + FMA kernel backend. This translation unit is compiled with
// -mavx2 -mfma -ffp-contract=off on x86-64 (see CMakeLists.txt); everywhere
// else the stub at the bottom reports the backend as unavailable.
//
// Kernel families (see simd.hpp):
//  - axpy family: explicit mul-then-add (never FMA) in the exact per-element
//    order of the scalar reference, so results are bitwise identical to the
//    scalar backend.
//  - dot family + transcendentals: FMA and polynomial exp/log with a fixed
//    lane-tree reduction — deterministic within this backend, a few ULP from
//    scalar.
#include "linalg/simd.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

namespace surro::linalg::simd {
namespace {

// ---------------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------------

// Fixed-order horizontal sum: (lo128 + hi128), then pairwise within 128.
inline float hsum_ps(__m256 v) {
  __m128 s = _mm_add_ps(_mm256_castps256_ps128(v),
                        _mm256_extractf128_ps(v, 1));
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

inline double hsum_pd(__m256d v) {
  __m128d s = _mm_add_pd(_mm256_castpd256_pd128(v),
                         _mm256_extractf128_pd(v, 1));
  return _mm_cvtsd_f64(s) + _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
}

inline float hmax_ps(__m256 v) {
  __m128 s = _mm_max_ps(_mm256_castps256_ps128(v),
                        _mm256_extractf128_ps(v, 1));
  s = _mm_max_ps(s, _mm_movehl_ps(s, s));
  s = _mm_max_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

// Cephes-style exp for 8 floats (avx_mathfun lineage). Max error a couple
// of ULP over the softmax-relevant range; inputs are pre-clamped. The
// clamp constant is the first operand: min/max return the second operand
// when either is NaN, so a NaN input stays NaN, as std::exp's does.
inline __m256 exp256_ps(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  x = _mm256_min_ps(_mm256_set1_ps(88.3762626647949f), x);
  x = _mm256_max_ps(_mm256_set1_ps(-88.3762626647949f), x);

  __m256 fx = _mm256_fmadd_ps(x, _mm256_set1_ps(1.44269504088896341f),
                              _mm256_set1_ps(0.5f));
  fx = _mm256_floor_ps(fx);
  x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(0.693359375f), x);
  x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(-2.12194440e-4f), x);

  const __m256 z = _mm256_mul_ps(x, x);
  __m256 y = _mm256_set1_ps(1.9875691500e-4f);
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.3981999507e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(8.3334519073e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(4.1665795894e-2f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.6666665459e-1f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(5.0000001201e-1f));
  y = _mm256_fmadd_ps(y, z, x);
  y = _mm256_add_ps(y, one);

  __m256i n = _mm256_cvttps_epi32(fx);
  n = _mm256_add_epi32(n, _mm256_set1_epi32(0x7f));
  n = _mm256_slli_epi32(n, 23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(n));
}

// Cephes log (double) for 4 lanes. Caller guarantees x > 0 and finite.
inline __m256d log256_pd(__m256d x) {
  const __m256d one = _mm256_set1_pd(1.0);

  // frexp: mantissa in [0.5, 1), unbiased exponent.
  const __m256i bits = _mm256_castpd_si256(x);
  __m256i expi = _mm256_srli_epi64(bits, 52);
  expi = _mm256_and_si256(expi, _mm256_set1_epi64x(0x7ff));
  expi = _mm256_sub_epi64(expi, _mm256_set1_epi64x(1022));
  __m256i mant =
      _mm256_and_si256(bits, _mm256_set1_epi64x(0x000fffffffffffffLL));
  mant = _mm256_or_si256(mant, _mm256_set1_epi64x(0x3fe0000000000000LL));
  __m256d m = _mm256_castsi256_pd(mant);
  // pack the four small int64 exponents into int32 lanes, then convert
  const __m256i packed = _mm256_permutevar8x32_epi32(
      expi, _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0));
  __m256d e = _mm256_cvtepi32_pd(_mm256_castsi256_si128(packed));

  // m < sqrt(1/2): halve the exponent's pull, double the mantissa
  const __m256d mask =
      _mm256_cmp_pd(m, _mm256_set1_pd(0.70710678118654752440), _CMP_LT_OQ);
  e = _mm256_sub_pd(e, _mm256_and_pd(mask, one));
  m = _mm256_add_pd(m, _mm256_and_pd(mask, m));
  m = _mm256_sub_pd(m, one);

  const __m256d z = _mm256_mul_pd(m, m);
  __m256d p = _mm256_set1_pd(1.01875663804580931796e-4);
  p = _mm256_fmadd_pd(p, m, _mm256_set1_pd(4.97494994976747001425e-1));
  p = _mm256_fmadd_pd(p, m, _mm256_set1_pd(4.70579119878881725854e0));
  p = _mm256_fmadd_pd(p, m, _mm256_set1_pd(1.44989225341610930846e1));
  p = _mm256_fmadd_pd(p, m, _mm256_set1_pd(1.79368678507819816313e1));
  p = _mm256_fmadd_pd(p, m, _mm256_set1_pd(7.70838733755885391666e0));
  __m256d q = _mm256_add_pd(m, _mm256_set1_pd(1.12873587189167450590e1));
  q = _mm256_fmadd_pd(q, m, _mm256_set1_pd(4.52279145837532221105e1));
  q = _mm256_fmadd_pd(q, m, _mm256_set1_pd(8.29875266912776603211e1));
  q = _mm256_fmadd_pd(q, m, _mm256_set1_pd(7.11544750618563894466e1));
  q = _mm256_fmadd_pd(q, m, _mm256_set1_pd(2.31251620126765340583e1));

  __m256d y = _mm256_mul_pd(_mm256_mul_pd(m, z), _mm256_div_pd(p, q));
  y = _mm256_fmadd_pd(e, _mm256_set1_pd(-2.121944400546905827679e-4), y);
  y = _mm256_fnmadd_pd(_mm256_set1_pd(0.5), z, y);
  __m256d r = _mm256_add_pd(m, y);
  r = _mm256_fmadd_pd(e, _mm256_set1_pd(0.693359375), r);
  return r;
}

// ---------------------------------------------------------------------------
// f32 axpy family — mul then add, never FMA, scalar element order
// ---------------------------------------------------------------------------

void axpy_f32_avx2(float a, const float* x, float* y, std::size_t n) {
  const __m256 va = _mm256_set1_ps(a);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 prod = _mm256_mul_ps(va, _mm256_loadu_ps(x + i));
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), prod));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void acc_f32_avx2(const float* x, float* y, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] += x[i];
}

void add_f32_avx2(const float* a, const float* b, float* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        out + i,
        _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] + b[i];
}

void sub_f32_avx2(const float* a, const float* b, float* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        out + i,
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] - b[i];
}

void mul_f32_avx2(const float* a, const float* b, float* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        out + i,
        _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

void scale_f32_avx2(float a, float* x, std::size_t n) {
  const __m256 va = _mm256_set1_ps(a);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), va));
  }
  for (; i < n; ++i) x[i] *= a;
}

// Register-tiled C += A·B in the BLIS Haswell shape (Van Zee & van de Geijn,
// ACM TOMS 2015): MR=6 rows x NR=16 columns, twelve __m256 accumulators
// seeded from C, plus 4- and 1-row tiles for the m remainder and 8-wide then
// masked 1..7-wide column blocks for the n remainder. The k loop is
// branch-free: every row takes the FMA at every k-step. With finite inputs
// a zero A value adds +-0 to the accumulator, which leaves it unchanged
// unless the accumulator is -0 — reachable only from a -0 seed, and
// linalg::gemm seeds C with +0 — so every output element is the C-seeded
// chain acc = fma(a[i][p], b[p][j], acc) over the nonzero a[i][p] in
// ascending p: bitwise equal to std::fma applied that way, whatever tile,
// column block or caller row chunk the element lands in. That is what keeps
// the output independent of thread chunking.
// There is no zero-skip: testing a tile's A values costs MR loads and a
// branch per k-step, which measured slower on the TabDDPM denoiser, where
// only the one-hot input layer has zeros to skip.
template <int MR, int NV, bool kMasked>
inline void gemm_tile(const float* a, std::size_t lda, const float* b,
                      std::size_t ldb, float* c, std::size_t ldc,
                      std::size_t k, __m256i tail) {
  const auto load = [tail](const float* p, int v) {
    return kMasked && v == NV - 1 ? _mm256_maskload_ps(p, tail)
                                  : _mm256_loadu_ps(p);
  };
  __m256 acc[MR][NV];
#pragma GCC unroll 8
  for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) acc[r][v] = load(c + r * ldc + 8 * v, v);
  }
  for (std::size_t p = 0; p < k; ++p) {
    const float* ap = a + p;
    const float* bp = b + p * ldb;
    __m256 bv[NV];
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) bv[v] = load(bp + 8 * v, v);
#pragma GCC unroll 8
    for (int r = 0; r < MR; ++r) {
      const __m256 av = _mm256_broadcast_ss(ap + r * lda);
#pragma GCC unroll 2
      for (int v = 0; v < NV; ++v) {
        acc[r][v] = _mm256_fmadd_ps(av, bv[v], acc[r][v]);
      }
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) {
      float* cp = c + r * ldc + 8 * v;
      if (kMasked && v == NV - 1) {
        _mm256_maskstore_ps(cp, tail, acc[r][v]);
      } else {
        _mm256_storeu_ps(cp, acc[r][v]);
      }
    }
  }
}

// One column block (16, 8 or masked <8 wide) over all m rows: 6-row tiles,
// then 4-row, then single rows. The block's B panel (k x 16 floats) stays
// in L1 while the row tiles stream over it.
template <int NV, bool kMasked>
inline void gemm_column_block(const float* a, std::size_t lda, const float* b,
                              std::size_t ldb, float* c, std::size_t ldc,
                              std::size_t m, std::size_t k, __m256i tail) {
  std::size_t i = 0;
  for (; i + 6 <= m; i += 6) {
    gemm_tile<6, NV, kMasked>(a + i * lda, lda, b, ldb, c + i * ldc, ldc, k,
                              tail);
  }
  for (; i + 4 <= m; i += 4) {
    gemm_tile<4, NV, kMasked>(a + i * lda, lda, b, ldb, c + i * ldc, ldc, k,
                              tail);
  }
  for (; i < m; ++i) {
    gemm_tile<1, NV, kMasked>(a + i * lda, lda, b, ldb, c + i * ldc, ldc, k,
                              tail);
  }
}

void gemm_block_f32_avx2(const float* a, std::size_t lda, const float* b,
                         std::size_t ldb, float* c, std::size_t ldc,
                         std::size_t m, std::size_t k, std::size_t n) {
  const __m256i none = _mm256_setzero_si256();
  std::size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    gemm_column_block<2, false>(a, lda, b + j, ldb, c + j, ldc, m, k, none);
  }
  if (j + 8 <= n) {
    gemm_column_block<1, false>(a, lda, b + j, ldb, c + j, ldc, m, k, none);
    j += 8;
  }
  if (j < n) {
    const __m256i tail =
        _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n - j)),
                           _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    gemm_column_block<1, true>(a, lda, b + j, ldb, c + j, ldc, m, k, tail);
  }
}

// ---------------------------------------------------------------------------
// f32 dot family — FMA, fixed lane-tree reduction
// ---------------------------------------------------------------------------

float dot_f32_avx2(const float* a, const float* b, std::size_t n) {
  __m256 acc = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                          acc);
  }
  float r = hsum_ps(acc);
  for (; i < n; ++i) r += a[i] * b[i];
  return r;
}

float sq_l2_f32_avx2(const float* a, const float* b, std::size_t n) {
  __m256 acc = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 d =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc = _mm256_fmadd_ps(d, d, acc);
  }
  float r = hsum_ps(acc);
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    r += d * d;
  }
  return r;
}

// ---------------------------------------------------------------------------
// f32 transcendental
// ---------------------------------------------------------------------------

void softmax_row_f32_avx2(float* row, std::size_t n) {
  if (n == 0) return;
  float mx;
  std::size_t i = 0;
  if (n >= 8) {
    __m256 vmax = _mm256_loadu_ps(row);
    for (i = 8; i + 8 <= n; i += 8)
      vmax = _mm256_max_ps(vmax, _mm256_loadu_ps(row + i));
    mx = hmax_ps(vmax);
  } else {
    mx = row[0];
    i = 1;
  }
  for (; i < n; ++i) mx = std::max(mx, row[i]);

  const __m256 vmx = _mm256_set1_ps(mx);
  __m256 vsum = _mm256_setzero_ps();
  for (i = 0; i + 8 <= n; i += 8) {
    const __m256 e = exp256_ps(_mm256_sub_ps(_mm256_loadu_ps(row + i), vmx));
    _mm256_storeu_ps(row + i, e);
    vsum = _mm256_add_ps(vsum, e);
  }
  float sum = hsum_ps(vsum);
  for (; i < n; ++i) {
    row[i] = std::exp(row[i] - mx);
    sum += row[i];
  }

  const __m256 vsumb = _mm256_set1_ps(sum);
  for (i = 0; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(row + i,
                     _mm256_div_ps(_mm256_loadu_ps(row + i), vsumb));
  }
  for (; i < n; ++i) row[i] /= sum;
}

// Polynomial exp on every element, the ragged tail through a masked load,
// so an element's bytes never depend on its position in the array.
void silu_f32_avx2(const float* x, float* out, std::size_t n) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 sign = _mm256_set1_ps(-0.0f);
  const auto silu = [&](__m256 v) {
    const __m256 e = exp256_ps(_mm256_xor_ps(v, sign));
    return _mm256_mul_ps(v, _mm256_div_ps(one, _mm256_add_ps(one, e)));
  };
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, silu(_mm256_loadu_ps(x + i)));
  }
  if (i < n) {
    const __m256i tail =
        _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n - i)),
                           _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    _mm256_maskstore_ps(out + i, tail, silu(_mm256_maskload_ps(x + i, tail)));
  }
}

// ---------------------------------------------------------------------------
// f64 elementwise — bitwise identical to scalar
// ---------------------------------------------------------------------------

void normalize_f64_avx2(const double* x, double shift, double denom,
                        double* out, std::size_t n) {
  const __m256d vs = _mm256_set1_pd(shift);
  const __m256d vd = _mm256_set1_pd(denom);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        out + i, _mm256_div_pd(_mm256_sub_pd(_mm256_loadu_pd(x + i), vs), vd));
  }
  for (; i < n; ++i) out[i] = (x[i] - shift) / denom;
}

void madd_f64_avx2(const double* x, double a, double b, double* out,
                   std::size_t n) {
  const __m256d va = _mm256_set1_pd(a);
  const __m256d vb = _mm256_set1_pd(b);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        out + i, _mm256_add_pd(_mm256_mul_pd(_mm256_loadu_pd(x + i), va), vb));
  }
  for (; i < n; ++i) out[i] = x[i] * a + b;
}

void interp_grid_f64_avx2(const double* q, std::size_t grid_n,
                          const double* p, double* out, std::size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d vscale = _mm256_set1_pd((double)(grid_n - 1));
  const __m128i maxcell = _mm_set1_epi32((int)(grid_n - 2));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d pv = _mm256_loadu_pd(p + i);
    pv = _mm256_min_pd(_mm256_max_pd(pv, zero), one);
    const __m256d pos = _mm256_mul_pd(pv, vscale);
    __m128i cell = _mm256_cvttpd_epi32(pos);  // pos >= 0 so trunc == floor
    cell = _mm_min_epi32(cell, maxcell);
    const __m256d frac = _mm256_sub_pd(pos, _mm256_cvtepi32_pd(cell));
    // Masked gather with an all-ones mask: same loads as the plain gather,
    // but the explicit zero source avoids GCC's maybe-uninitialized warning
    // on _mm256_undefined_pd inside _mm256_i32gather_pd.
    const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    const __m256d q0 = _mm256_mask_i32gather_pd(zero, q, cell, all, 8);
    const __m256d q1 = _mm256_mask_i32gather_pd(zero, q + 1, cell, all, 8);
    const __m256d r =
        _mm256_add_pd(_mm256_mul_pd(q0, _mm256_sub_pd(one, frac)),
                      _mm256_mul_pd(q1, frac));
    _mm256_storeu_pd(out + i, r);
  }
  const double scale = (double)(grid_n - 1);
  for (; i < n; ++i) {
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

// ---------------------------------------------------------------------------
// f64 transcendental
// ---------------------------------------------------------------------------

double jsd_acc_f64_avx2(const double* p, const double* q, std::size_t n) {
  const double log2e_s = 1.0 / std::log(2.0);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d log2e = _mm256_set1_pd(log2e_s);
  __m256d acc = zero;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d pv = _mm256_loadu_pd(p + i);
    const __m256d qv = _mm256_loadu_pd(q + i);
    const __m256d m = _mm256_mul_pd(half, _mm256_add_pd(pv, qv));
    const __m256d maskp = _mm256_cmp_pd(pv, zero, _CMP_GT_OQ);
    const __m256d maskq = _mm256_cmp_pd(qv, zero, _CMP_GT_OQ);
    // ratio 1.0 (log == 0) in masked-out lanes; the div may produce NaN
    // there (0/0) but it is blended away before use.
    const __m256d rp = _mm256_blendv_pd(one, _mm256_div_pd(pv, m), maskp);
    const __m256d rq = _mm256_blendv_pd(one, _mm256_div_pd(qv, m), maskq);
    const __m256d tp = _mm256_and_pd(
        maskp, _mm256_mul_pd(_mm256_mul_pd(half, pv), log256_pd(rp)));
    const __m256d tq = _mm256_and_pd(
        maskq, _mm256_mul_pd(_mm256_mul_pd(half, qv), log256_pd(rq)));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_add_pd(tp, tq), log2e));
  }
  double r = hsum_pd(acc);
  for (; i < n; ++i) {
    const double m = 0.5 * (p[i] + q[i]);
    if (p[i] > 0.0) r += 0.5 * p[i] * std::log(p[i] / m) * log2e_s;
    if (q[i] > 0.0) r += 0.5 * q[i] * std::log(q[i] / m) * log2e_s;
  }
  return r;
}

const Kernels kAvx2Kernels = {
    axpy_f32_avx2,        acc_f32_avx2,        add_f32_avx2,
    sub_f32_avx2,         mul_f32_avx2,        scale_f32_avx2,
    gemm_block_f32_avx2,  dot_f32_avx2,        sq_l2_f32_avx2,
    softmax_row_f32_avx2, silu_f32_avx2,       normalize_f64_avx2,
    madd_f64_avx2,        interp_grid_f64_avx2, jsd_acc_f64_avx2,
};

}  // namespace

const Kernels* avx2_kernels_table() noexcept { return &kAvx2Kernels; }

}  // namespace surro::linalg::simd

#else  // !(__AVX2__ && __FMA__)

namespace surro::linalg::simd {
const Kernels* avx2_kernels_table() noexcept { return nullptr; }
}  // namespace surro::linalg::simd

#endif
