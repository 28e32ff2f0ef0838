#include "socet/bist/memory.hpp"

namespace socet::bist {

FaultyMemory::FaultyMemory(std::uint32_t words, unsigned width)
    : words_(words), width_(width), data_(words, 0) {
  util::require(words > 0, "FaultyMemory: need at least one word");
  util::require(width > 0 && width <= 64,
                "FaultyMemory: width must be 1..64");
}

void FaultyMemory::inject(const MemFault& fault) {
  util::require(fault.address < words_ && fault.bit < width_,
                "inject: fault site out of range");
  if (fault.kind == MemFaultKind::kCouplingIdempotent) {
    util::require(
        fault.aggressor_address < words_ && fault.aggressor_bit < width_,
        "inject: aggressor out of range");
    util::require(fault.aggressor_address != fault.address ||
                      fault.aggressor_bit != fault.bit,
                  "inject: aggressor and victim coincide");
  }
  faults_.push_back(fault);
  // Stuck cells read stuck immediately.
  if (fault.kind == MemFaultKind::kStuckAt) {
    set_cell(fault.address, fault.bit, fault.value);
  }
}

bool FaultyMemory::cell(std::uint32_t address, unsigned bit) const {
  return (data_[address] >> bit) & 1;
}

void FaultyMemory::set_cell(std::uint32_t address, unsigned bit, bool value) {
  if (value) {
    data_[address] |= 1ULL << bit;
  } else {
    data_[address] &= ~(1ULL << bit);
  }
}

void FaultyMemory::apply_cell_write(std::uint32_t address, unsigned bit,
                                    bool value) {
  const bool old = cell(address, bit);

  // Faults constraining this cell's own behaviour.
  for (const MemFault& f : faults_) {
    if (f.address != address || f.bit != bit) continue;
    switch (f.kind) {
      case MemFaultKind::kStuckAt:
        return;  // never changes
      case MemFaultKind::kTransition:
        if (old != value && value == f.value) return;  // transition fails
        break;
      case MemFaultKind::kCouplingIdempotent:
        break;  // victim behaviour handled on aggressor writes
    }
  }
  set_cell(address, bit, value);

  // This write may be an aggressor transition for coupling faults.
  if (old != value) {
    const bool rising = value;
    for (const MemFault& f : faults_) {
      if (f.kind != MemFaultKind::kCouplingIdempotent) continue;
      if (f.aggressor_address != address || f.aggressor_bit != bit) continue;
      if (f.aggressor_rising != rising) continue;
      set_cell(f.address, f.bit, f.value);
    }
  }
}

void FaultyMemory::write(std::uint32_t address, std::uint64_t value) {
  util::require(address < words_, "write: address out of range");
  for (unsigned b = 0; b < width_; ++b) {
    apply_cell_write(address, b, (value >> b) & 1);
  }
}

std::uint64_t FaultyMemory::read(std::uint32_t address) const {
  util::require(address < words_, "read: address out of range");
  std::uint64_t value = data_[address];
  // Stuck cells dominate whatever the array holds.
  for (const MemFault& f : faults_) {
    if (f.kind == MemFaultKind::kStuckAt && f.address == address) {
      if (f.value) {
        value |= 1ULL << f.bit;
      } else {
        value &= ~(1ULL << f.bit);
      }
    }
  }
  if (width_ < 64) value &= (1ULL << width_) - 1;
  return value;
}

}  // namespace socet::bist
