// digest.h -- order-sensitive FNV-1a-64 stream digest for the
// determinism oracle (DESIGN.md section 17).
//
// The divergence oracle (tests/determinism_oracle_test.cpp) asserts
// that every pipeline under a strict determinism contract produces
// bit-identical output across repeated runs and across worker counts.
// "Bit-identical" is checked by folding the output into this digest and
// comparing the single u64: FNV-1a is tiny, has no state beyond the
// accumulator, and is order-sensitive, so a reordered-but-equal
// multiset of values (the classic symptom of an iteration-order bug)
// still changes the digest.
//
// Values are fed as explicit primitives -- never as raw struct bytes,
// where padding would fold indeterminate memory into the hash.
// Floating-point values are folded through their IEEE bit pattern
// (std::bit_cast), so two runs differing by one ulp -- the signature
// of a completion-order FP reduction -- produce different digests.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <string_view>

namespace octgb::analysis {

class Digest {
 public:
  static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ull;
  static constexpr std::uint64_t kPrime = 0x100000001b3ull;

  Digest& byte(std::uint8_t b) {
    state_ = (state_ ^ b) * kPrime;
    return *this;
  }

  Digest& u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
    return *this;
  }

  Digest& u32(std::uint32_t v) { return u64(v); }
  Digest& i64(std::int64_t v) { return u64(static_cast<std::uint64_t>(v)); }
  Digest& boolean(bool v) { return byte(v ? 1 : 0); }

  /// IEEE bit pattern, not value: -0.0 != 0.0 and every ulp counts.
  Digest& f64(double v) { return u64(std::bit_cast<std::uint64_t>(v)); }

  Digest& str(std::string_view s) {
    u64(s.size());
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
    return *this;
  }

  template <typename T>
  Digest& span_u(std::span<const T> values) {
    u64(values.size());
    for (const T v : values) u64(static_cast<std::uint64_t>(v));
    return *this;
  }

  Digest& span_f64(std::span<const double> values) {
    u64(values.size());
    for (const double v : values) f64(v);
    return *this;
  }

  std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = kOffsetBasis;
};

}  // namespace octgb::analysis
