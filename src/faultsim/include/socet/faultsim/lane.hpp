// Fixed-width simulation lane: W consecutive 64-bit pattern words.
//
// The classic parallel-pattern fault simulator packs 64 patterns into one
// machine word.  A Lane<W> widens that to 64*W patterns (or faulty
// machines) per pass: all bitwise gate evaluations become short
// fixed-trip loops over W words, which the compiler unrolls and
// vectorizes with the target's default vector ISA.  W is a compile time
// constant so every loop bound is known and no lane ever touches the
// heap.  Lane provides what gate::eval_gate needs of a value type, so
// both fault simulators evaluate gates through that one truth table.
//
// Lane operators are force-inlined (SOCET_FORCE_INLINE, gate/eval.hpp):
// the kernels apply them once per gate in their innermost loops, where a
// call per W-word operation would cost more than the operation.
#pragma once

#include <cstdint>

#include "socet/gate/eval.hpp"

namespace socet::faultsim {

template <unsigned W>
struct Lane {
  static_assert(W >= 1, "a lane needs at least one word");
  std::uint64_t w[W];

  static constexpr unsigned kPatterns = 64 * W;

  static constexpr Lane zero() {
    Lane l{};
    return l;
  }

  static constexpr Lane ones() {
    Lane l{};
    for (unsigned i = 0; i < W; ++i) l.w[i] = ~0ULL;
    return l;
  }

  /// Broadcast a single stuck value across every pattern slot.
  static constexpr Lane fill(bool bit) { return bit ? ones() : zero(); }

  /// True when any masked bit is set — the "this fault is active / this
  /// observation point differs" test.
  [[nodiscard]] SOCET_FORCE_INLINE bool any(const Lane& mask) const {
    std::uint64_t acc = 0;
    for (unsigned i = 0; i < W; ++i) acc |= w[i] & mask.w[i];
    return acc != 0;
  }

  /// Pattern slot `k` (bit k of the packed lane), used when single
  /// responses are read back out of a lane kernel.
  [[nodiscard]] SOCET_FORCE_INLINE bool bit(unsigned k) const {
    return (w[k / 64] >> (k % 64)) & 1;
  }

  SOCET_FORCE_INLINE void set_bit(unsigned k) { w[k / 64] |= 1ULL << (k % 64); }

  friend SOCET_FORCE_INLINE Lane operator&(const Lane& a, const Lane& b) {
    Lane r;
    for (unsigned i = 0; i < W; ++i) r.w[i] = a.w[i] & b.w[i];
    return r;
  }
  friend SOCET_FORCE_INLINE Lane operator|(const Lane& a, const Lane& b) {
    Lane r;
    for (unsigned i = 0; i < W; ++i) r.w[i] = a.w[i] | b.w[i];
    return r;
  }
  friend SOCET_FORCE_INLINE Lane operator^(const Lane& a, const Lane& b) {
    Lane r;
    for (unsigned i = 0; i < W; ++i) r.w[i] = a.w[i] ^ b.w[i];
    return r;
  }
  friend SOCET_FORCE_INLINE Lane operator~(const Lane& a) {
    Lane r;
    for (unsigned i = 0; i < W; ++i) r.w[i] = ~a.w[i];
    return r;
  }
  SOCET_FORCE_INLINE Lane& operator|=(const Lane& b) {
    for (unsigned i = 0; i < W; ++i) w[i] |= b.w[i];
    return *this;
  }
  friend SOCET_FORCE_INLINE bool operator==(const Lane& a, const Lane& b) {
    std::uint64_t diff = 0;
    for (unsigned i = 0; i < W; ++i) diff |= a.w[i] ^ b.w[i];
    return diff == 0;
  }
};

}  // namespace socet::faultsim
