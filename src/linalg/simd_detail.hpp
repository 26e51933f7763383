#pragma once
/// @file simd_detail.hpp
/// Internal to the kernel layer and its tests: the x86 GEMM register tiles
/// by name. The avx2 table carries one of them (simd.cpp picks the zmm tile
/// once, when the CPU reports avx512f); this header lets tests check each
/// tile against the reference chain whatever this CPU picked. It is not a
/// runtime switch: nothing outside tests and simd.cpp calls these.

#include <cstddef>

namespace surro::linalg::simd::detail {

/// The signature of Kernels::gemm_block_f32.
using GemmBlockFn = void (*)(const float* a, std::size_t lda, const float* b,
                             std::size_t ldb, float* c, std::size_t ldc,
                             std::size_t m, std::size_t k, std::size_t n);

/// The AVX2 tile: 6 rows x 16 columns in ymm registers. nullptr when the
/// AVX2 TU was not compiled for this target or the CPU lacks AVX2 + FMA.
[[nodiscard]] GemmBlockFn gemm_tile_ymm6x16() noexcept;

/// The AVX-512 tile: 8 rows x 32 columns in zmm registers. nullptr when
/// the AVX-512 TU was not compiled for this target or the CPU lacks
/// avx512f.
[[nodiscard]] GemmBlockFn gemm_tile_zmm8x32() noexcept;

}  // namespace surro::linalg::simd::detail
