// Arbitrary-width two-valued bit vector.
//
// Test vectors, scan-chain contents and simulation values are all bit
// vectors whose width is set by the RTL (anywhere from 1-bit control
// signals to multi-register scan images).  Bits are packed 64 per word;
// bit 0 is the least significant bit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace socet::util {

class BitVector {
 public:
  /// An empty (width 0) vector.
  BitVector() = default;

  /// `width` zero bits.
  explicit BitVector(std::size_t width);

  /// `width` bits initialised from the low bits of `value`.  Throws if
  /// `value` does not fit in `width` bits.
  BitVector(std::size_t width, std::uint64_t value);

  /// Parse from a string of '0'/'1' characters, most significant bit first
  /// (so "101" has bit 2 = 1, bit 1 = 0, bit 0 = 1).  Throws on other
  /// characters or an empty string.
  static BitVector from_string(const std::string& bits);

  /// `width` random bits drawn from `rng_word()` calls.
  template <typename Rng>
  static BitVector random(std::size_t width, Rng& rng) {
    BitVector v(width);
    for (auto& word : v.words_) word = rng.next_u64();
    v.mask_top();
    return v;
  }

  [[nodiscard]] std::size_t width() const { return width_; }
  [[nodiscard]] bool empty() const { return width_ == 0; }

  [[nodiscard]] bool get(std::size_t bit) const;
  void set(std::size_t bit, bool value);

  /// Bits [lo, lo+len) as a new vector.  Throws if the range is out of
  /// bounds.
  [[nodiscard]] BitVector slice(std::size_t lo, std::size_t len) const;

  /// Append `other` above the current most significant bit.
  void append(const BitVector& other);

  /// Value as uint64; throws if width() > 64.
  [[nodiscard]] std::uint64_t to_u64() const;

  /// MSB-first character string, e.g. "0101".
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const BitVector& a, const BitVector& b);
  friend bool operator!=(const BitVector& a, const BitVector& b) {
    return !(a == b);
  }

 private:
  void mask_top();
  static std::size_t words_for(std::size_t width) { return (width + 63) / 64; }

  std::size_t width_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace socet::util
