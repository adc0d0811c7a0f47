// FNV-1a (64-bit), the repo's one hash: the v1 envelope-frame checksum
// (src/wire), the .repro and .ckpt whole-file checksums, and the per-round
// delivery-trace hash the golden tests pin.
#pragma once

#include <cstddef>
#include <cstdint>

namespace congos {

inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Folds `len` bytes into `h` (start from kFnvOffset for a fresh hash; pass a
/// previous result to continue one incrementally).
inline std::uint64_t fnv1a(const std::uint8_t* data, std::size_t len,
                           std::uint64_t h = kFnvOffset) {
  for (std::size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= kFnvPrime;
  }
  return h;
}

/// Folds one u64 value, little-endian byte order, into `h`. fnv1a_u64 over a
/// sequence of per-round counts reproduces exactly the golden
/// fnv1a(std::vector<std::uint64_t>) of tests/test_golden.cpp.
inline std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace congos
