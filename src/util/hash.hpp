#pragma once
// FNV-1a 64: the one byte-stream digest behind serve::hash_table, the
// scheduler's metrics_digest, the twin's decision digest, the workload
// bridge's label scatter and the shard router's key hash. Callers pick the
// starting value and fold bytes in with the mix helpers, so a multi-field
// digest is just a sequence of mixes. hex64 is the one rendering of a
// published digest.

#include <cstdint>
#include <string>
#include <string_view>

namespace surro::util {

/// The standard FNV-1a 64 offset basis and prime.
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// The offset basis the scheduler, twin, workload-bridge and shard-router
/// digests were first pinned with: the standard basis written in decimal
/// with its last digit dropped (1469598103934665603, not ...6037). Any
/// 64-bit value is a valid FNV seed; this one stays so those digests and
/// shard placements keep their bytes.
inline constexpr std::uint64_t kFnvShortOffset = 1469598103934665603ULL;

/// Fold one byte into `h`.
constexpr void fnv_mix_byte(std::uint64_t& h, std::uint8_t byte) noexcept {
  h ^= byte;
  h *= kFnvPrime;
}

/// Fold the 8 bytes of `v` into `h`, least-significant byte first.
constexpr void fnv_mix_u64(std::uint64_t& h, std::uint64_t v) noexcept {
  for (int shift = 0; shift < 64; shift += 8) {
    fnv_mix_byte(h, static_cast<std::uint8_t>(v >> shift));
  }
}

/// Fold every byte of `bytes` into `h`.
constexpr void fnv_mix_bytes(std::uint64_t& h,
                             std::string_view bytes) noexcept {
  for (const char c : bytes) fnv_mix_byte(h, static_cast<std::uint8_t>(c));
}

/// FNV-1a 64 of `bytes`, seeded with `offset`.
[[nodiscard]] constexpr std::uint64_t fnv1a(
    std::string_view bytes, std::uint64_t offset = kFnvOffset) noexcept {
  std::uint64_t h = offset;
  fnv_mix_bytes(h, bytes);
  return h;
}

/// `v` as 16 lowercase, zero-padded hex digits (printf's "%016llx"): the
/// text form of every published digest (output_hash, expected_hash, the
/// twin's decision digest).
[[nodiscard]] inline std::string hex64(std::uint64_t v) {
  std::string out(16, '0');
  for (std::size_t i = out.size(); i-- > 0; v >>= 4) {
    out[i] = "0123456789abcdef"[v & 0xF];
  }
  return out;
}

}  // namespace surro::util
