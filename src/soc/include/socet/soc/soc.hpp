// The system-on-chip model: prepared cores plus chip-level wiring.
//
// A Soc owns nothing heavy: it references prepared cores (which carry
// their version menus and test sets) and records how chip pins and core
// ports are wired — everything the CCG construction and the test
// scheduler need.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "socet/core/core.hpp"

namespace socet::soc {

struct PiTag {};
struct PoTag {};
using PiId = util::Id<PiTag>;
using PoId = util::Id<PoTag>;

struct ChipPin {
  std::string name;
  unsigned width = 1;
};

/// A core port addressed from chip level.
struct CorePortRef {
  std::uint32_t core = 0;
  rtl::PortId port;

  friend bool operator==(const CorePortRef&, const CorePortRef&) = default;
  friend auto operator<=>(const CorePortRef&, const CorePortRef&) = default;
};

/// One chip-level wire: a PI or core output driving a core input or PO.
struct Link {
  std::variant<PiId, CorePortRef> from;
  std::variant<PoId, CorePortRef> to;
};

class Soc {
 public:
  explicit Soc(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  PiId add_pi(const std::string& name, unsigned width);
  PoId add_po(const std::string& name, unsigned width);
  /// Register a prepared core.  The pointer must outlive the Soc.
  std::uint32_t add_core(const core::Core* core);

  void connect(PiId pi, std::uint32_t core, const std::string& input_port);
  void connect(std::uint32_t from_core, const std::string& output_port,
               std::uint32_t to_core, const std::string& input_port);
  void connect(std::uint32_t core, const std::string& output_port, PoId po);

  const std::vector<ChipPin>& pis() const { return pis_; }
  const std::vector<ChipPin>& pos() const { return pos_; }
  const std::vector<const core::Core*>& cores() const { return cores_; }
  const core::Core& core(std::uint32_t index) const {
    return *cores_.at(index);
  }
  const std::vector<Link>& links() const { return links_; }

  PoId find_po(const std::string& name) const;
  std::uint32_t find_core(const std::string& name) const;

  /// Original chip area in cells: sum over cores of `area_fn` — supplied
  /// externally because area comes from gate-level elaboration.
  /// (Convenience for benches; the Soc itself carries no gate netlists.)

  /// Checks every connection's widths and that no core input or PO is
  /// driven twice.  Throws util::Error on violation.
  void validate() const;

 private:
  unsigned width_of(const std::variant<PiId, CorePortRef>& endpoint) const;
  unsigned width_of(const std::variant<PoId, CorePortRef>& endpoint) const;

  std::string name_;
  std::vector<ChipPin> pis_;
  std::vector<ChipPin> pos_;
  std::vector<const core::Core*> cores_;
  std::vector<Link> links_;
};

}  // namespace socet::soc
