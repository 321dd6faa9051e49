// FNV-1a hashing.
//
// One canonical implementation shared by every module that fingerprints
// bytes: predictor snapshots, the characterisation profile cache, and any
// future on-disk format. 64-bit FNV-1a is not cryptographic — it guards
// against truncation, bit rot and stale-parameter reuse, not adversaries.
#pragma once

#include <cstdint>
#include <string_view>
#include <type_traits>

namespace hetsched {

inline constexpr std::uint64_t kFnv1aOffsetBasis = 14695981039346656037ull;
inline constexpr std::uint64_t kFnv1aPrime = 1099511628211ull;

// One-shot hash of a byte string.
constexpr std::uint64_t fnv1a(std::string_view data,
                              std::uint64_t seed = kFnv1aOffsetBasis) {
  std::uint64_t hash = seed;
  for (const char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kFnv1aPrime;
  }
  return hash;
}

// Incremental variant for hashing heterogeneous fields without first
// concatenating them into a string.
class Fnv1a {
 public:
  constexpr Fnv1a() = default;

  constexpr Fnv1a& update(std::string_view data) {
    hash_ = fnv1a(data, hash_);
    return *this;
  }

  // Hashes the value's little-endian byte representation plus a leading
  // width byte, so adjacent fields cannot alias across widths.
  template <typename T>
    requires(std::is_integral_v<T> || std::is_enum_v<T>)
  constexpr Fnv1a& update_value(T value) {
    const auto v = static_cast<std::uint64_t>(value);
    mix(static_cast<unsigned char>(sizeof(T)));
    for (unsigned i = 0; i < sizeof(T); ++i) {
      mix(static_cast<unsigned char>((v >> (8 * i)) & 0xff));
    }
    return *this;
  }

  std::uint64_t digest() const { return hash_; }

 private:
  constexpr void mix(unsigned char byte) {
    hash_ ^= byte;
    hash_ *= kFnv1aPrime;
  }

  std::uint64_t hash_ = kFnv1aOffsetBasis;
};

}  // namespace hetsched
