#include "socet/util/bitvector.hpp"


#include "socet/util/error.hpp"

namespace socet::util {

BitVector::BitVector(std::size_t width)
    : width_(width), words_(words_for(width), 0) {}

BitVector::BitVector(std::size_t width, std::uint64_t value)
    : BitVector(width) {
  require(width >= 64 || value < (1ULL << width),
          "BitVector: value does not fit in width");
  if (!words_.empty()) words_[0] = value;
}

BitVector BitVector::from_string(const std::string& bits) {
  require(!bits.empty(), "BitVector::from_string: empty string");
  BitVector v(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const char c = bits[bits.size() - 1 - i];
    require(c == '0' || c == '1', "BitVector::from_string: bad character");
    v.set(i, c == '1');
  }
  return v;
}

bool BitVector::get(std::size_t bit) const {
  require(bit < width_, "BitVector::get: bit out of range");
  return (words_[bit / 64] >> (bit % 64)) & 1;
}

void BitVector::set(std::size_t bit, bool value) {
  require(bit < width_, "BitVector::set: bit out of range");
  const std::uint64_t mask = 1ULL << (bit % 64);
  if (value) {
    words_[bit / 64] |= mask;
  } else {
    words_[bit / 64] &= ~mask;
  }
}

BitVector BitVector::slice(std::size_t lo, std::size_t len) const {
  require(lo + len <= width_, "BitVector::slice: range out of bounds");
  BitVector out(len);
  for (std::size_t i = 0; i < len; ++i) out.set(i, get(lo + i));
  return out;
}

void BitVector::append(const BitVector& other) {
  const std::size_t old_width = width_;
  width_ += other.width();
  words_.resize(words_for(width_), 0);
  for (std::size_t i = 0; i < other.width(); ++i) {
    set(old_width + i, other.get(i));
  }
}

std::uint64_t BitVector::to_u64() const {
  require(width_ <= 64, "BitVector::to_u64: width exceeds 64");
  return words_.empty() ? 0 : words_[0];
}

std::string BitVector::to_string() const {
  std::string out(width_, '0');
  for (std::size_t i = 0; i < width_; ++i) {
    if (get(i)) out[width_ - 1 - i] = '1';
  }
  return out;
}

bool operator==(const BitVector& a, const BitVector& b) {
  return a.width_ == b.width_ && a.words_ == b.words_;
}

void BitVector::mask_top() {
  const std::size_t rem = width_ % 64;
  if (rem != 0 && !words_.empty()) {
    words_.back() &= (1ULL << rem) - 1;
  }
}

}  // namespace socet::util
