// Content digest helpers shared by campaign fingerprints, the server result
// cache, memory digests and the model checker: FNV-1a 64 over text or a
// stream of bytes and words, and fixed-width hex formatting so digests are
// stable as file names and JSON fields.
#pragma once

#include <cinttypes>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <type_traits>

namespace xmt {

/// Streaming FNV-1a 64. Feed bytes, strings or little-endian words, then
/// read value().
class Fnv1a64 {
 public:
  static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ull;
  static constexpr std::uint64_t kPrime = 0x100000001b3ull;

  /// `basis` other than the standard offset basis only for digests that
  /// were pinned with one.
  explicit Fnv1a64(std::uint64_t basis = kOffsetBasis) : h_(basis) {}

  void byte(std::uint8_t b) { h_ = (h_ ^ b) * kPrime; }

  void bytes(std::string_view s) {
    for (unsigned char c : s) byte(c);
  }

  /// Mixes all sizeof(T) bytes of `v`, least significant first.
  template <typename T>
  void word(T v) {
    static_assert(std::is_unsigned_v<T>);
    for (std::size_t i = 0; i < sizeof(T); ++i)
      byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_;
};

inline std::uint64_t fnv1a64(std::string_view text) {
  Fnv1a64 h;
  h.bytes(text);
  return h.value();
}

/// 16 lower-case hex digits, zero padded.
inline std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

}  // namespace xmt
