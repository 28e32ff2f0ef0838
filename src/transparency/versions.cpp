#include "socet/transparency/versions.hpp"

#include <algorithm>
#include <map>
#include <numeric>

#include "socet/obs/journal.hpp"
#include "socet/obs/metrics.hpp"
#include "socet/obs/trace.hpp"

namespace socet::transparency {

namespace {

using rtl::NodeKind;
using rtl::PortId;

/// Union-find over path indices, used to build serial groups from shared
/// RCG edges.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) x = parent_[x] = parent_[parent_[x]];
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

/// One found path and the terminal pairs it supports.
struct FoundPath {
  SearchResult result;
  std::vector<std::pair<PortId, PortId>> pairs;  ///< (input, output)
  bool added_mux = false;
};

}  // namespace

std::optional<unsigned> CoreVersion::latency(PortId input,
                                             PortId output) const {
  for (const auto& edge : edges) {
    if (edge.input == input && edge.output == output) return edge.latency;
  }
  return std::nullopt;
}

unsigned CoreVersion::total_latency_from(PortId input) const {
  // Independent pairs move data simultaneously; pairs in the same serial
  // group add up.  Total = max over groups of (group latency sum).
  std::map<int, unsigned> group_sum;
  unsigned independent_max = 0;
  for (const auto& edge : edges) {
    if (edge.input != input) continue;
    if (edge.serial_group < 0) {
      independent_max = std::max(independent_max, edge.latency);
    } else {
      group_sum[edge.serial_group] += edge.latency;
    }
  }
  unsigned total = independent_max;
  for (const auto& [group, sum] : group_sum) total = std::max(total, sum);
  return total;
}

CoreVersion make_version(const Rcg& rcg, const VersionPolicy& policy,
                         const TransparencyCostModel& cost) {
  SOCET_SPAN("transparency/make_version");
  SOCET_COUNT("transparency/versions_built");
  CoreVersion version;
  version.name = policy.name;

  const auto& netlist = rcg.netlist();
  std::set<std::uint32_t> used_edges;
  std::vector<FoundPath> paths;

  // The attempt ladder of Section 4: HSCAN edges avoiding reuse, HSCAN
  // edges with reuse, then all existing edges likewise.
  struct Attempt {
    EdgeClass allowed;
    bool exclusive;
  };
  std::vector<Attempt> ladder;
  if (policy.prefer_hscan) {
    ladder.push_back({EdgeClass::kHscanOnly, true});
    ladder.push_back({EdgeClass::kHscanOnly, false});
  }
  if (policy.allow_all_edges || !policy.prefer_hscan) {
    ladder.push_back({EdgeClass::kAllExisting, true});
    ladder.push_back({EdgeClass::kAllExisting, false});
  }

  const std::set<std::uint32_t> no_exclusions;

  // --- Justification: every output must be controllable from inputs. ----
  for (std::uint32_t out_node : rcg.output_nodes()) {
    SearchResult best;
    const Attempt* chosen = nullptr;
    for (const Attempt& attempt : ladder) {
      best = find_justification(
          rcg, out_node, attempt.allowed,
          attempt.exclusive ? used_edges : no_exclusions);
      if (best.found) {
        chosen = &attempt;
        break;
      }
    }
    const PortId out_port(rcg.node(out_node).ref.index);
    if (best.found) {
      SOCET_EVENT(
          "transparency/path", {"core", netlist.name()},
          {"version", policy.name}, {"port", netlist.port(out_port).name},
          {"dir", "justify"},
          {"edge_class",
           chosen->allowed == EdgeClass::kHscanOnly ? "hscan" : "existing"},
          {"reuse", !chosen->exclusive}, {"latency", best.latency},
          {"edges", best.edges.size()}, {"freezes", best.freeze_points});
      FoundPath fp;
      fp.result = best;
      for (std::uint32_t e : best.edges) {
        if (rcg.node(rcg.edge(e).src).ref.kind == NodeKind::kInputPort) {
          fp.pairs.emplace_back(PortId(rcg.node(rcg.edge(e).src).ref.index),
                                out_port);
        }
        used_edges.insert(e);
      }
      paths.push_back(std::move(fp));
    } else {
      // Transparency mux from some input straight onto the output; prefer
      // an input port of matching kind/width.
      const auto inputs = netlist.input_ports();
      util::require(!inputs.empty(), "make_version: core has no inputs");
      PortId src = inputs.front();
      for (PortId in : inputs) {
        if (netlist.port(in).width >= netlist.port(out_port).width) {
          src = in;
          break;
        }
      }
      SOCET_COUNT("transparency/mux_insertions");
      FoundPath fp;
      fp.result.found = true;
      fp.result.latency = 1;
      fp.added_mux = true;
      fp.pairs.emplace_back(src, out_port);
      paths.push_back(std::move(fp));
      const bool control =
          netlist.port(out_port).kind == rtl::PortKind::kControl;
      const unsigned mux_cells =
          (control ? cost.control_bypass_per_bit : cost.trans_mux_per_bit) *
              netlist.port(out_port).width +
          cost.trans_mux_control;
      version.extra_cells += mux_cells;
      SOCET_EVENT("transparency/mux", {"core", netlist.name()},
                  {"version", policy.name},
                  {"port", netlist.port(out_port).name}, {"dir", "justify"},
                  {"pair", netlist.port(src).name + "->" +
                               netlist.port(out_port).name},
                  {"cells", mux_cells}, {"reason", "no_path"});
    }
  }

  // --- Propagation: every input must reach outputs. ---------------------
  for (std::uint32_t in_node : rcg.input_nodes()) {
    SearchResult best;
    const Attempt* chosen = nullptr;
    for (const Attempt& attempt : ladder) {
      best = find_propagation(rcg, in_node, attempt.allowed,
                              attempt.exclusive ? used_edges : no_exclusions);
      if (best.found) {
        chosen = &attempt;
        break;
      }
    }
    const PortId in_port(rcg.node(in_node).ref.index);
    if (best.found) {
      SOCET_EVENT(
          "transparency/path", {"core", netlist.name()},
          {"version", policy.name}, {"port", netlist.port(in_port).name},
          {"dir", "propagate"},
          {"edge_class",
           chosen->allowed == EdgeClass::kHscanOnly ? "hscan" : "existing"},
          {"reuse", !chosen->exclusive}, {"latency", best.latency},
          {"edges", best.edges.size()}, {"freezes", best.freeze_points});
      FoundPath fp;
      fp.result = best;
      for (std::uint32_t e : best.edges) {
        if (rcg.node(rcg.edge(e).dst).ref.kind == NodeKind::kOutputPort) {
          fp.pairs.emplace_back(in_port,
                                PortId(rcg.node(rcg.edge(e).dst).ref.index));
        }
        used_edges.insert(e);
      }
      paths.push_back(std::move(fp));
    } else {
      const auto outputs = netlist.output_ports();
      util::require(!outputs.empty(), "make_version: core has no outputs");
      PortId dst = outputs.front();
      for (PortId out : outputs) {
        if (netlist.port(out).width >= netlist.port(in_port).width) {
          dst = out;
          break;
        }
      }
      SOCET_COUNT("transparency/mux_insertions");
      FoundPath fp;
      fp.result.found = true;
      fp.result.latency = 1;
      fp.added_mux = true;
      fp.pairs.emplace_back(in_port, dst);
      paths.push_back(std::move(fp));
      const bool control = netlist.port(in_port).kind == rtl::PortKind::kControl;
      const unsigned mux_cells =
          (control ? cost.control_bypass_per_bit : cost.trans_mux_per_bit) *
              netlist.port(in_port).width +
          cost.trans_mux_control;
      version.extra_cells += mux_cells;
      SOCET_EVENT("transparency/mux", {"core", netlist.name()},
                  {"version", policy.name},
                  {"port", netlist.port(in_port).name}, {"dir", "propagate"},
                  {"pair", netlist.port(in_port).name + "->" +
                               netlist.port(dst).name},
                  {"cells", mux_cells}, {"reason", "no_path"});
    }
  }

  // --- Cost of the found paths. ------------------------------------------
  std::set<std::uint32_t> non_hscan_costed;
  for (const FoundPath& fp : paths) {
    version.extra_cells += fp.result.freeze_points * cost.freeze_cell;
    for (std::uint32_t e : fp.result.edges) {
      if (!rcg.edge(e).hscan && !non_hscan_costed.count(e)) {
        non_hscan_costed.insert(e);
        version.extra_cells += cost.non_hscan_edge_cell;
      }
    }
  }

  // --- Serial groups: paths sharing an RCG edge serialize. ---------------
  UnionFind uf(paths.size());
  std::map<std::uint32_t, std::size_t> edge_owner;
  for (std::size_t p = 0; p < paths.size(); ++p) {
    for (std::uint32_t e : paths[p].result.edges) {
      auto it = edge_owner.find(e);
      if (it == edge_owner.end()) {
        edge_owner.emplace(e, p);
      } else {
        uf.unite(p, it->second);
      }
    }
  }
  std::map<std::size_t, int> root_to_group;
  std::map<std::size_t, int> root_members;
  for (std::size_t p = 0; p < paths.size(); ++p) ++root_members[uf.find(p)];

  int next_group = 0;
  for (std::size_t p = 0; p < paths.size(); ++p) {
    const std::size_t root = uf.find(p);
    int group = -1;
    if (root_members[root] > 1) {
      auto it = root_to_group.find(root);
      if (it == root_to_group.end()) {
        group = next_group++;
        root_to_group.emplace(root, group);
        version.extra_cells += cost.shared_group_control;
      } else {
        group = it->second;
      }
    }
    for (const auto& [in, out] : paths[p].pairs) {
      version.edges.push_back(TransparencyEdgeSpec{
          in, out, paths[p].result.latency, group, paths[p].added_mux});
    }
  }

  // Deduplicate pairs (a pair can surface from both search directions):
  // keep the lowest-latency occurrence.
  std::stable_sort(version.edges.begin(), version.edges.end(),
                   [](const TransparencyEdgeSpec& a,
                      const TransparencyEdgeSpec& b) {
                     if (a.input != b.input) return a.input < b.input;
                     if (a.output != b.output) return a.output < b.output;
                     return a.latency < b.latency;
                   });
  version.edges.erase(
      std::unique(version.edges.begin(), version.edges.end(),
                  [](const TransparencyEdgeSpec& a,
                     const TransparencyEdgeSpec& b) {
                    return a.input == b.input && a.output == b.output;
                  }),
      version.edges.end());

  // --- Version 3: force every pair to latency one with added muxes. ------
  if (policy.force_latency_one) {
    force_latency_one(version, netlist, cost);
  }
  return version;
}

void force_latency_one(CoreVersion& version, const rtl::Netlist& netlist,
                       const TransparencyCostModel& cost) {
  for (auto& edge : version.edges) {
    if (edge.latency <= 1) continue;
    const auto& out = netlist.port(edge.output);
    version.extra_cells +=
        cost.trans_mux_per_bit * out.width + cost.trans_mux_control;
    edge.latency = 1;
    edge.serial_group = -1;
    edge.via_added_mux = true;
  }
}

std::vector<CoreVersion> standard_versions(const Rcg& rcg,
                                           const TransparencyCostModel& cost) {
  std::vector<CoreVersion> versions;
  versions.push_back(make_version(
      rcg, VersionPolicy{"Version 1", true, true, false}, cost));
  versions.push_back(make_version(
      rcg, VersionPolicy{"Version 2", false, true, false}, cost));
  versions.push_back(make_version(
      rcg, VersionPolicy{"Version 3", false, true, true}, cost));

  // Versions are cumulative: the transparency logic of version k+1
  // includes version k's, so every pair inherits the best latency seen so
  // far.  Serial-group ids are renumbered per merged version so groups
  // from different sources never collide.
  for (std::size_t v = 1; v < versions.size(); ++v) {
    CoreVersion& prev = versions[v - 1];
    CoreVersion& cur = versions[v];
    const int group_shift =
        1 + std::accumulate(cur.edges.begin(), cur.edges.end(), -1,
                            [](int acc, const TransparencyEdgeSpec& e) {
                              return std::max(acc, e.serial_group);
                            });
    for (const TransparencyEdgeSpec& inherited : prev.edges) {
      bool found = false;
      for (TransparencyEdgeSpec& edge : cur.edges) {
        if (edge.input != inherited.input || edge.output != inherited.output) {
          continue;
        }
        found = true;
        if (inherited.latency < edge.latency) {
          edge = inherited;
          if (edge.serial_group >= 0) edge.serial_group += group_shift;
        }
        break;
      }
      if (!found) {
        cur.edges.push_back(inherited);
        if (cur.edges.back().serial_group >= 0) {
          cur.edges.back().serial_group += group_shift;
        }
      }
    }
    // Area only accumulates; nudge ties so the optimizer has a strict
    // ladder to climb.
    cur.extra_cells = std::max(cur.extra_cells, prev.extra_cells + 1);
  }
  // Pairs inherited into the minimum-latency version must also be forced
  // down to one cycle (they pay for their own muxes).
  force_latency_one(versions.back(), rcg.netlist(), cost);
  return versions;
}

}  // namespace socet::transparency
