// Fault-injectable memory model for the BIST substrate.
//
// The paper's SOC contains RAM and ROM cores that SOCET leaves to
// distributed BIST (Zorian [8], Section 5).  This module supplies that
// substrate: a behavioural memory with injectable cell faults, so the
// March-test engine can be exercised and its fault-class coverage
// demonstrated (Table 1's BIST-tested memories are thereby "built, not
// assumed").
//
// Supported fault classes (the classic memory-test taxonomy):
//   * SAF  — cell stuck-at-0/1;
//   * TF   — transition fault (cell cannot make a 0->1 or 1->0 change);
//   * CFid — idempotent coupling fault (a transition in the aggressor
//            cell forces the victim to a fixed value).
#pragma once

#include <cstdint>
#include <vector>

#include "socet/util/error.hpp"

namespace socet::bist {

enum class MemFaultKind : std::uint8_t {
  kStuckAt,
  kTransition,   ///< cell cannot transition in `direction`
  kCouplingIdempotent,
};

struct MemFault {
  MemFaultKind kind = MemFaultKind::kStuckAt;
  std::uint32_t address = 0;
  unsigned bit = 0;
  /// kStuckAt: the stuck value.  kTransition: the *destination* value the
  /// cell cannot reach (true = up-transition fails).  kCoupling: the value
  /// forced on the victim.
  bool value = false;
  /// kCouplingIdempotent only: aggressor cell.
  std::uint32_t aggressor_address = 0;
  unsigned aggressor_bit = 0;
  /// kCouplingIdempotent only: aggressor transition that triggers
  /// (true = rising).
  bool aggressor_rising = true;
};

/// Word-organized RAM with optional injected faults.
class FaultyMemory {
 public:
  FaultyMemory(std::uint32_t words, unsigned width);

  std::uint32_t words() const { return words_; }
  unsigned width() const { return width_; }

  void inject(const MemFault& fault);

  void write(std::uint32_t address, std::uint64_t value);
  std::uint64_t read(std::uint32_t address) const;

 private:
  void apply_cell_write(std::uint32_t address, unsigned bit, bool value);
  bool cell(std::uint32_t address, unsigned bit) const;
  void set_cell(std::uint32_t address, unsigned bit, bool value);

  std::uint32_t words_;
  unsigned width_;
  std::vector<std::uint64_t> data_;
  std::vector<MemFault> faults_;
};

}  // namespace socet::bist
