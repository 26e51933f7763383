#include "linalg/simd.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "linalg/simd_detail.hpp"

namespace surro::linalg::simd {

// Defined in simd_avx2.cpp / simd_neon.cpp. Each returns its kernel table
// when that backend was compiled into this binary, nullptr otherwise.
const Kernels* avx2_kernels_table() noexcept;
const Kernels* neon_kernels_table() noexcept;
// Defined in simd_avx512.cpp: the zmm GEMM tile when that TU was compiled
// with AVX-512F, nullptr otherwise.
detail::GemmBlockFn avx512_gemm_tile() noexcept;

namespace {

// ---------------------------------------------------------------------------
// Scalar reference kernels. These mirror the seed's loops exactly: sequential
// element order, mul-then-add (no FMA), division kept as division. Every
// vectorized backend is tested against these.
// ---------------------------------------------------------------------------

void axpy_f32_scalar(float a, const float* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void acc_f32_scalar(const float* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += x[i];
}

void add_f32_scalar(const float* a, const float* b, float* out,
                    std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

void sub_f32_scalar(const float* a, const float* b, float* out,
                    std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
}

void mul_f32_scalar(const float* a, const float* b, float* out,
                    std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

void scale_f32_scalar(float a, float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] *= a;
}

// C += A·B over a panel, i-k-j with the seed's zero-skip. Per output element
// the chain is seeded from C, k-ascending, and skips zero A values — the
// invariants every backend's micro-kernel reproduces so results cannot
// depend on the caller's row chunking.
void gemm_block_f32_scalar(const float* a, std::size_t lda, const float* b,
                           std::size_t ldb, float* c, std::size_t ldc,
                           std::size_t m, std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * lda;
    float* crow = c + i * ldc;
    for (std::size_t p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      const float* brow = b + p * ldb;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

float dot_f32_scalar(const float* a, const float* b, std::size_t n) {
  float acc = 0.0f;
  for (std::size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

float sq_l2_f32_scalar(const float* a, const float* b, std::size_t n) {
  float acc = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    const float d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

void softmax_row_f32_scalar(float* row, std::size_t n) {
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

void silu_f32_scalar(const float* x, float* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const float s = 1.0f / (1.0f + std::exp(-x[i]));
    out[i] = x[i] * s;
  }
}

void normalize_f64_scalar(const double* x, double shift, double denom,
                          double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = (x[i] - shift) / denom;
}

void madd_f64_scalar(const double* x, double a, double b, double* out,
                     std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = x[i] * a + b;
}

void interp_grid_f64_scalar(const double* q, std::size_t grid_n,
                            const double* p, double* out, std::size_t n) {
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

double jsd_acc_f64_scalar(const double* p, const double* q, std::size_t n) {
  const double log2e = 1.0 / std::log(2.0);
  double jsd = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double m = 0.5 * (p[i] + q[i]);
    if (p[i] > 0.0) jsd += 0.5 * p[i] * std::log(p[i] / m) * log2e;
    if (q[i] > 0.0) jsd += 0.5 * q[i] * std::log(q[i] / m) * log2e;
  }
  return jsd;
}

const Kernels kScalarKernels = {
    axpy_f32_scalar,    acc_f32_scalar,        add_f32_scalar,
    sub_f32_scalar,     mul_f32_scalar,        scale_f32_scalar,
    gemm_block_f32_scalar, dot_f32_scalar,     sq_l2_f32_scalar,
    softmax_row_f32_scalar, silu_f32_scalar,   normalize_f64_scalar,
    madd_f64_scalar,    interp_grid_f64_scalar, jsd_acc_f64_scalar,
};

bool cpu_has_avx2_fma() noexcept {
#if defined(__x86_64__) || defined(_M_X64)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool cpu_has_avx512f() noexcept {
#if defined(__x86_64__) || defined(_M_X64)
  return __builtin_cpu_supports("avx512f");
#else
  return false;
#endif
}

// The avx2 table as dispatched: simd_avx2.cpp's kernels with the zmm GEMM
// tile in place of the ymm one when this CPU runs AVX-512F. Built once; the
// tile is the same per-element FMA chain, so the backend keeps its name.
const Kernels* avx2_table() noexcept {
  static const Kernels* const table = []() -> const Kernels* {
    const Kernels* base = avx2_kernels_table();
    if (base == nullptr || !cpu_has_avx2_fma()) return nullptr;
    static Kernels picked = *base;
    if (const auto zmm = detail::gemm_tile_zmm8x32()) {
      picked.gemm_block_f32 = zmm;
    }
    return &picked;
  }();
  return table;
}

Backend detect_best() noexcept {
  if (avx2_table() != nullptr) return Backend::kAvx2;
  if (neon_kernels_table() != nullptr) return Backend::kNeon;
  return Backend::kScalar;
}

const Kernels* table_for(Backend backend) noexcept {
  switch (backend) {
    case Backend::kScalar:
      return &kScalarKernels;
    case Backend::kAvx2:
      return avx2_table();
    case Backend::kNeon:
      return neon_kernels_table();
  }
  return nullptr;
}

struct Dispatch {
  std::atomic<const Kernels*> table;
  std::atomic<int> backend;
};

Backend resolve_startup_backend() {
  Backend chosen = detect_best();
  if (const char* env = std::getenv("SURRO_SIMD");
      env != nullptr && *env != '\0') {
    try {
      const Backend requested = parse_backend(env);
      if (backend_available(requested)) {
        chosen = requested;
      } else {
        std::fprintf(stderr,
                     "[simd] SURRO_SIMD=%s unavailable on this host; "
                     "using %s\n",
                     env, backend_name(chosen));
      }
    } catch (const std::invalid_argument&) {
      std::fprintf(stderr,
                   "[simd] SURRO_SIMD=%s not recognised "
                   "(want auto|scalar|avx2|neon); using %s\n",
                   env, backend_name(chosen));
    }
  }
  return chosen;
}

Dispatch& dispatch() {
  static Dispatch d;
  static const bool initialized = [] {
    const Backend chosen = resolve_startup_backend();
    d.table.store(table_for(chosen), std::memory_order_relaxed);
    d.backend.store((int)chosen, std::memory_order_relaxed);
    return true;
  }();
  (void)initialized;
  return d;
}

}  // namespace

const char* backend_name(Backend backend) noexcept {
  switch (backend) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kNeon:
      return "neon";
  }
  return "unknown";
}

Backend parse_backend(const std::string& name) {
  if (name == "scalar") return Backend::kScalar;
  if (name == "avx2") return Backend::kAvx2;
  if (name == "neon") return Backend::kNeon;
  if (name == "auto") return detect_best();
  throw std::invalid_argument("unknown SIMD backend '" + name +
                              "' (want auto|scalar|avx2|neon)");
}

bool backend_available(Backend backend) noexcept {
  return table_for(backend) != nullptr;
}

std::vector<Backend> available_backends() {
  std::vector<Backend> out;
  for (Backend b : {Backend::kScalar, Backend::kAvx2, Backend::kNeon}) {
    if (backend_available(b)) out.push_back(b);
  }
  return out;
}

Backend active_backend() noexcept {
  return (Backend)dispatch().backend.load(std::memory_order_relaxed);
}

const char* active_backend_name() noexcept {
  return backend_name(active_backend());
}

const char* gemm_tile_name(Backend backend) noexcept {
  const Kernels* table = table_for(backend);
  if (table == nullptr) return "none";
  switch (backend) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kAvx2:
      return table->gemm_block_f32 == detail::gemm_tile_zmm8x32()
                 ? "zmm8x32"
                 : "ymm6x16";
    case Backend::kNeon:
      return "neon4x4";
  }
  return "none";
}

void force_backend(Backend backend) {
  const Kernels* table = table_for(backend);
  if (table == nullptr) {
    throw std::invalid_argument(std::string("SIMD backend '") +
                                backend_name(backend) +
                                "' is not available on this host");
  }
  dispatch().table.store(table, std::memory_order_relaxed);
  dispatch().backend.store((int)backend, std::memory_order_relaxed);
}

const Kernels& kernels() noexcept {
  return *dispatch().table.load(std::memory_order_relaxed);
}

const Kernels& kernels_for(Backend backend) {
  const Kernels* table = table_for(backend);
  if (table == nullptr) {
    throw std::invalid_argument(std::string("SIMD backend '") +
                                backend_name(backend) +
                                "' is not available on this host");
  }
  return *table;
}

namespace detail {

GemmBlockFn gemm_tile_ymm6x16() noexcept {
  const Kernels* base = avx2_kernels_table();
  return base != nullptr && cpu_has_avx2_fma() ? base->gemm_block_f32
                                               : nullptr;
}

GemmBlockFn gemm_tile_zmm8x32() noexcept {
  return cpu_has_avx512f() ? avx512_gemm_tile() : nullptr;
}

}  // namespace detail

}  // namespace surro::linalg::simd
