#pragma once
/// @file simd.hpp
/// Portable SIMD kernel layer with one-time runtime dispatch.
///
/// Every dense hot loop in the repo (GEMM variants, elementwise tensor ops,
/// softmax rows, k-NN distances, quantile/scaler transforms, the JSD
/// accumulator) funnels through the function-pointer table returned by
/// kernels(). The table is selected **once** at startup from the best
/// instruction set the CPU supports — AVX2+FMA on x86-64, NEON on aarch64,
/// plain scalar otherwise — and can be pinned for A/B testing with the
/// `SURRO_SIMD` environment variable (`scalar`, `avx2`, `neon`, or `auto`).
///
/// Determinism contract (docs/PERFORMANCE.md spells this out):
///  - Within one backend, every kernel is bitwise deterministic and the
///    reduction order is fixed per element, so results never depend on the
///    thread count of the caller's parallel loop.
///  - *Across* backends, the axpy-family kernels (axpy/acc/add/sub/mul/
///    scale/normalize/madd/interp_grid) produce bitwise-identical results
///    to scalar because they perform the same correctly-rounded per-element
///    operations in the same order. The dot-family kernels (dot/sq_l2 and
///    gemm_block) use FMA and per-lane accumulators, and the transcendental
///    kernels (softmax_row/silu/jsd_acc) use polynomial exp/log, so their
///    bytes may differ from scalar by a few ULP — never within a backend.

#include <cstddef>
#include <string>
#include <vector>

namespace surro::linalg::simd {

/// The selectable instruction-set backends. kScalar is always available and
/// is the reference implementation the vectorized backends are tested
/// against.
enum class Backend {
  kScalar = 0,  ///< portable C++ loops; bitwise reference semantics
  kAvx2 = 1,    ///< x86-64 AVX2 + FMA (8 x f32 / 4 x f64 lanes)
  kNeon = 2,    ///< aarch64 NEON (4 x f32 / 2 x f64 lanes)
};

/// Stable lowercase name ("scalar", "avx2", "neon") used by `SURRO_SIMD`,
/// the `--simd` CLI flag, and every JSON artifact's "simd_backend" field.
[[nodiscard]] const char* backend_name(Backend backend) noexcept;

/// Parse a backend name as accepted by `SURRO_SIMD`. "auto" resolves to the
/// best backend this CPU supports. Throws std::invalid_argument on unknown
/// names.
[[nodiscard]] Backend parse_backend(const std::string& name);

/// True when `backend` was compiled in *and* this CPU can execute it.
[[nodiscard]] bool backend_available(Backend backend) noexcept;

/// Every available backend, scalar first.
[[nodiscard]] std::vector<Backend> available_backends();

/// The backend all kernels dispatch to. Resolved once, on first use, from
/// `SURRO_SIMD` (falling back to CPU auto-detection when unset, "auto", or
/// naming an unavailable backend — the fallback warns on stderr).
[[nodiscard]] Backend active_backend() noexcept;

/// backend_name(active_backend()) — the string logged by `surro_cli
/// version` / `serve` and embedded in stats artifacts.
[[nodiscard]] const char* active_backend_name() noexcept;

/// The GEMM register tile `backend`'s table runs: "scalar", "ymm6x16" or
/// "zmm8x32" (avx2: the zmm tile when the CPU reports avx512f, picked once
/// when the table is built), "neon4x4"; "none" when `backend` is
/// unavailable. Every tile is the same per-element chain, so the tile never
/// changes bytes; it is stamped next to the backend so ledger numbers can
/// be read against the tile that produced them.
[[nodiscard]] const char* gemm_tile_name(Backend backend) noexcept;

/// Re-point the dispatch table at `backend` (must be available; throws
/// std::invalid_argument otherwise). Intended for tests and benchmarks that
/// A/B backends inside one process; production code should rely on the
/// startup selection. Not safe to call concurrently with running kernels.
void force_backend(Backend backend);

/// The per-backend kernel table. All pointers are non-null in every table;
/// backends without a native implementation of a kernel alias the scalar
/// one (e.g. NEON's transcendentals). Pointer-based dispatch keeps the
/// per-call overhead to one relaxed atomic load.
struct Kernels {
  // -- f32 axpy family (bitwise identical across backends) ----------------
  /// y[i] += a * x[i]  (no FMA — mul then add, matching scalar rounding)
  void (*axpy_f32)(float a, const float* x, float* y, std::size_t n);
  /// y[i] += x[i]
  void (*acc_f32)(const float* x, float* y, std::size_t n);
  /// out[i] = a[i] + b[i]
  void (*add_f32)(const float* a, const float* b, float* out, std::size_t n);
  /// out[i] = a[i] - b[i]
  void (*sub_f32)(const float* a, const float* b, float* out, std::size_t n);
  /// out[i] = a[i] * b[i]
  void (*mul_f32)(const float* a, const float* b, float* out, std::size_t n);
  /// x[i] *= a
  void (*scale_f32)(float a, float* x, std::size_t n);

  // -- f32 dot family (per-backend ULP differences, fixed lane order) -----
  /// C += A * B for a row panel: A is (m,k) with row stride `lda`, B is
  /// (k,n) with stride `ldb`, C is (m,n) with stride `ldc`. Register-tiled
  /// micro-kernel. Every output element is a chain seeded from C that, for
  /// each nonzero A value in ascending k, accumulates a[i][p] * b[p][j]:
  /// with std::fma on AVX2 (bitwise equal to that chain for finite
  /// inputs, in the ymm and the zmm tile alike), with mul-then-add on
  /// scalar and NEON. The chain depends only
  /// on the element, so results are independent of how the caller chunks
  /// rows across threads; AVX2 bytes may differ from scalar by a few ULP.
  void (*gemm_block_f32)(const float* a, std::size_t lda, const float* b,
                         std::size_t ldb, float* c, std::size_t ldc,
                         std::size_t m, std::size_t k, std::size_t n);
  /// sum_i a[i] * b[i]
  float (*dot_f32)(const float* a, const float* b, std::size_t n);
  /// sum_i (a[i] - b[i])^2   (squared Euclidean distance)
  float (*sq_l2_f32)(const float* a, const float* b, std::size_t n);

  // -- f32 transcendental (per-backend ULP differences) -------------------
  /// In-place numerically-stable softmax over row[0..n).
  void (*softmax_row_f32)(float* row, std::size_t n);
  /// out[i] = x[i] * (1 / (1 + exp(-x[i])))  (SiLU, TabDDPM's activation).
  void (*silu_f32)(const float* x, float* out, std::size_t n);

  // -- f64 elementwise (bitwise identical across backends) ----------------
  /// out[i] = (x[i] - shift) / denom  (min-max / standard scaling)
  void (*normalize_f64)(const double* x, double shift, double denom,
                        double* out, std::size_t n);
  /// out[i] = x[i] * a + b  (inverse scaling; mul then add, no FMA)
  void (*madd_f64)(const double* x, double a, double b, double* out,
                   std::size_t n);
  /// Linear interpolation into a uniform quantile grid: for each p[i]
  /// (clamped to [0,1]), pos = p * (grid_n - 1), cell = min(floor(pos),
  /// grid_n - 2), out[i] = q[cell] * (1 - frac) + q[cell + 1] * frac.
  /// The inverse-CDF hot loop of the quantile transformer.
  void (*interp_grid_f64)(const double* quantiles, std::size_t grid_n,
                          const double* p, double* out, std::size_t n);

  // -- f64 transcendental (per-backend ULP differences) -------------------
  /// Jensen–Shannon accumulator over aligned histograms:
  /// sum_i [p_i > 0] 0.5 p_i log2(p_i / m_i) + [q_i > 0] 0.5 q_i
  /// log2(q_i / m_i) with m = (p + q) / 2.
  double (*jsd_acc_f64)(const double* p, const double* q, std::size_t n);
};

/// The active backend's kernel table (one relaxed atomic pointer load).
[[nodiscard]] const Kernels& kernels() noexcept;

/// A specific backend's table, for scalar-vs-SIMD agreement tests and the
/// kernel benchmark. Throws std::invalid_argument when unavailable.
[[nodiscard]] const Kernels& kernels_for(Backend backend);

}  // namespace surro::linalg::simd
