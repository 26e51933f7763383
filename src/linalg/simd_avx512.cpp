// AVX-512F register tile for the avx2 backend's gemm_block_f32. This
// translation unit is compiled with -mavx512f -ffp-contract=off on x86-64
// when the compiler accepts the flag (see CMakeLists.txt); everywhere else
// the stub at the bottom reports no tile and the avx2 table keeps its ymm
// 6x16 tile. simd.cpp installs this tile into the avx2 table once, when the
// CPU reports avx512f; the backend name stays "avx2" because the bytes do
// not change (see gemm_tile below).
#include "linalg/simd_detail.hpp"

#if defined(__AVX512F__)

#include <immintrin.h>

namespace surro::linalg::simd {
namespace {

// Register-tiled C += A·B, the zmm form of simd_avx2.cpp's BLIS tile:
// MR=8 rows x NR=32 columns, sixteen __m512 accumulators seeded from C,
// plus 4- and 1-row tiles for the m remainder. The n remainder is one 16-
// or 32-wide block whose last vector loads and stores under a __mmask16, so
// there is no scalar tail. The k loop is branch-free, as in the ymm tile,
// so every output element is the C-seeded chain
// acc = fma(a[i][p], b[p][j], acc) over ascending p: the ymm tile's bytes
// and the std::fma reference chain's, whichever tile, column block or
// caller row chunk the element lands in.
// Of the other shapes measured, 16x16 was no faster at m = 16 and slower
// at m = 96, and 12x32 (24 accumulators) slower at m = 48 and 96
// (docs/PERFORMANCE.md).
template <int MR, int NV, bool kMasked>
inline void gemm_tile(const float* a, std::size_t lda, const float* b,
                      std::size_t ldb, float* c, std::size_t ldc,
                      std::size_t k, __mmask16 tail) {
  const auto load = [tail](const float* p, int v) {
    return kMasked && v == NV - 1 ? _mm512_maskz_loadu_ps(tail, p)
                                  : _mm512_loadu_ps(p);
  };
  __m512 acc[MR][NV];
#pragma GCC unroll 8
  for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) acc[r][v] = load(c + r * ldc + 16 * v, v);
  }
  for (std::size_t p = 0; p < k; ++p) {
    const float* ap = a + p;
    const float* bp = b + p * ldb;
    __m512 bv[NV];
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) bv[v] = load(bp + 16 * v, v);
#pragma GCC unroll 8
    for (int r = 0; r < MR; ++r) {
      const __m512 av = _mm512_set1_ps(ap[r * lda]);
#pragma GCC unroll 2
      for (int v = 0; v < NV; ++v) {
        acc[r][v] = _mm512_fmadd_ps(av, bv[v], acc[r][v]);
      }
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) {
      float* cp = c + r * ldc + 16 * v;
      if (kMasked && v == NV - 1) {
        _mm512_mask_storeu_ps(cp, tail, acc[r][v]);
      } else {
        _mm512_storeu_ps(cp, acc[r][v]);
      }
    }
  }
}

// One column block (32 or 16 wide) over all m rows: 8-row tiles, then
// 4-row, then single rows, streaming over the block's k x 32 B panel.
template <int NV, bool kMasked>
inline void gemm_column_block(const float* a, std::size_t lda, const float* b,
                              std::size_t ldb, float* c, std::size_t ldc,
                              std::size_t m, std::size_t k, __mmask16 tail) {
  std::size_t i = 0;
  for (; i + 8 <= m; i += 8) {
    gemm_tile<8, NV, kMasked>(a + i * lda, lda, b, ldb, c + i * ldc, ldc, k,
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

void gemm_block_f32_avx512(const float* a, std::size_t lda, const float* b,
                           std::size_t ldb, float* c, std::size_t ldc,
                           std::size_t m, std::size_t k, std::size_t n) {
  const __mmask16 full = 0xFFFF;
  std::size_t j = 0;
  for (; j + 32 <= n; j += 32) {
    gemm_column_block<2, false>(a, lda, b + j, ldb, c + j, ldc, m, k, full);
  }
  const std::size_t rest = n - j;  // 0..31 columns
  if (rest > 16) {
    const auto tail = static_cast<__mmask16>((1u << (rest - 16)) - 1u);
    gemm_column_block<2, true>(a, lda, b + j, ldb, c + j, ldc, m, k, tail);
  } else if (rest > 0) {
    const auto tail = static_cast<__mmask16>((1u << rest) - 1u);
    gemm_column_block<1, true>(a, lda, b + j, ldb, c + j, ldc, m, k, tail);
  }
}

}  // namespace

detail::GemmBlockFn avx512_gemm_tile() noexcept {
  return gemm_block_f32_avx512;
}

}  // namespace surro::linalg::simd

#else  // !__AVX512F__

namespace surro::linalg::simd {
detail::GemmBlockFn avx512_gemm_tile() noexcept { return nullptr; }
}  // namespace surro::linalg::simd

#endif
