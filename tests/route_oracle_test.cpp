// Differential tests for the CCG router.
//
// The library's time-aware Dijkstra stops at its answer: `route_from_pis`
// when it pops its target, `route_to_pos` once the heap top passes the
// arrival of the first PO it popped.  `plan_chip_test` runs every search
// of a plan on one scratch and reuses one buffer per reservation ledger.
// The reference below is the exhaustive search it replaced: every search
// settles the whole reachable CCG on fresh buffers, seeds the PIs by a scan
// over every node, and picks the earliest PO, lowest index first, by a
// scan over every node.  Both must return the same routes, step for step,
// and `plan_chip_test` must lay the reference's routes into its plans.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "socet/soc/ccg.hpp"
#include "socet/soc/schedule.hpp"
#include "socet/systems/synthetic.hpp"
#include "socet/util/rng.hpp"

namespace socet::soc {
namespace {

// ------------------------------------------------------ reference router

constexpr unsigned kInf = std::numeric_limits<unsigned>::max() / 4;

unsigned duration_of(const CcgEdge& edge) {
  return std::max(edge.latency, 1u);
}

struct Label {
  unsigned arrival;
  std::uint32_t node;
  friend bool operator>(const Label& a, const Label& b) {
    return a.arrival > b.arrival;
  }
};

void reference_dijkstra(const Ccg& ccg,
                        const std::vector<std::uint32_t>& sources,
                        const Reservations& reservations, unsigned earliest,
                        std::int32_t banned_core,
                        std::vector<unsigned>& arrival,
                        std::vector<std::int32_t>& pred_edge) {
  arrival.assign(ccg.nodes().size(), kInf);
  pred_edge.assign(ccg.nodes().size(), -1);
  std::priority_queue<Label, std::vector<Label>, std::greater<>> heap;
  for (std::uint32_t s : sources) {
    arrival[s] = earliest;
    heap.push(Label{earliest, s});
  }
  while (!heap.empty()) {
    const Label top = heap.top();
    heap.pop();
    if (top.arrival > arrival[top.node]) continue;
    for (std::uint32_t e : ccg.out_edges()[top.node]) {
      const CcgEdge& edge = ccg.edges()[e];
      if (banned_core >= 0 && edge.core == banned_core) continue;
      const unsigned depart = reservations.earliest_free(
          edge.resource, top.arrival, duration_of(edge));
      const unsigned reach = depart + edge.latency;
      if (reach < arrival[edge.dst]) {
        arrival[edge.dst] = reach;
        pred_edge[edge.dst] = static_cast<std::int32_t>(e);
        heap.push(Label{reach, edge.dst});
      }
    }
  }
}

Route reference_extract_route(const Ccg& ccg,
                              const std::vector<unsigned>& arrival,
                              const std::vector<std::int32_t>& pred_edge,
                              std::uint32_t target,
                              Reservations& reservations) {
  Route route;
  route.arrival = arrival[target];
  std::uint32_t node = target;
  while (pred_edge[node] >= 0) {
    const std::uint32_t e = static_cast<std::uint32_t>(pred_edge[node]);
    const CcgEdge& edge = ccg.edges()[e];
    const unsigned arrive = arrival[node];
    route.steps.push_back(RouteStep{e, arrive - edge.latency, arrive});
    node = edge.src;
  }
  std::reverse(route.steps.begin(), route.steps.end());
  for (const RouteStep& step : route.steps) {
    reservations.reserve(ccg.edges()[step.edge].resource, step.depart,
                         duration_of(ccg.edges()[step.edge]));
  }
  return route;
}

std::optional<Route> reference_route_from_pis(const Ccg& ccg,
                                              std::uint32_t target,
                                              Reservations& reservations,
                                              unsigned earliest,
                                              std::int32_t banned_core) {
  std::vector<std::uint32_t> sources;
  for (std::uint32_t i = 0; i < ccg.nodes().size(); ++i) {
    if (ccg.nodes()[i].kind == CcgNodeKind::kPi) sources.push_back(i);
  }
  std::vector<unsigned> arrival;
  std::vector<std::int32_t> pred;
  reference_dijkstra(ccg, sources, reservations, earliest, banned_core,
                     arrival, pred);
  if (arrival[target] >= kInf) return std::nullopt;
  return reference_extract_route(ccg, arrival, pred, target, reservations);
}

/// Also counts, in `ties`, the searches whose earliest arrival is shared by
/// more than one PO: the sweep must hold such ties to test the tie rule.
std::optional<Route> reference_route_to_pos(const Ccg& ccg,
                                            std::uint32_t source,
                                            Reservations& reservations,
                                            unsigned earliest,
                                            std::int32_t banned_core,
                                            unsigned* ties) {
  std::vector<unsigned> arrival;
  std::vector<std::int32_t> pred;
  reference_dijkstra(ccg, {source}, reservations, earliest, banned_core,
                     arrival, pred);
  std::uint32_t best = kInf;
  unsigned best_arrival = kInf;
  unsigned tied = 0;
  for (std::uint32_t i = 0; i < ccg.nodes().size(); ++i) {
    if (ccg.nodes()[i].kind != CcgNodeKind::kPo) continue;
    if (arrival[i] < best_arrival) {
      best = i;
      best_arrival = arrival[i];
      tied = 1;
    } else if (arrival[i] == best_arrival) {
      ++tied;
    }
  }
  if (best_arrival >= kInf) return std::nullopt;
  if (tied > 1) ++*ties;
  return reference_extract_route(ccg, arrival, pred, best, reservations);
}

// ---------------------------------------------------------------- replay

std::string describe(const std::optional<Route>& route) {
  if (!route) return "none";
  std::string text = "arrival " + std::to_string(route->arrival) +
                     (route->via_system_mux ? " mux" : "") + ":";
  for (const RouteStep& step : route->steps) {
    text += " e" + std::to_string(step.edge) + "@" +
            std::to_string(step.depart) + "-" + std::to_string(step.arrive);
  }
  return text;
}

/// The routes of one core under test, in port order, as plan_chip_test
/// looks them up: nullopt where the CCG has no route.
struct CoreRoutes {
  std::vector<std::optional<Route>> inputs;
  std::vector<std::optional<Route>> outputs;
};

/// Routes every core of `soc` in plan_chip_test's order: inputs on one
/// ledger and outputs on another, both fresh per core, with the core under
/// test banned; under `ignore_reservations` each route gets a fresh ledger.
template <typename FromPis, typename ToPos>
std::vector<CoreRoutes> replay(const Soc& soc, const Ccg& ccg,
                               bool ignore_reservations, FromPis from_pis,
                               ToPos to_pos) {
  std::vector<CoreRoutes> routes;
  for (std::uint32_t c = 0; c < soc.cores().size(); ++c) {
    const rtl::Netlist& netlist = soc.core(c).netlist();
    const auto banned = static_cast<std::int32_t>(c);
    CoreRoutes core;
    Reservations inputs(ccg.resource_count());
    Reservations outputs(ccg.resource_count());
    for (std::uint32_t p = 0; p < netlist.ports().size(); ++p) {
      const CorePortRef ref{c, rtl::PortId(p)};
      Reservations fresh(ccg.resource_count());
      if (netlist.ports()[p].dir == rtl::PortDir::kInput) {
        core.inputs.push_back(from_pis(ccg, ccg.core_in_node(ref),
                                       ignore_reservations ? fresh : inputs,
                                       0, banned));
      } else {
        core.outputs.push_back(to_pos(ccg, ccg.core_out_node(ref),
                                      ignore_reservations ? fresh : outputs,
                                      0, banned));
      }
    }
    routes.push_back(std::move(core));
  }
  return routes;
}

/// A plan's route for a port the reference routed as `want`: the same
/// route, or the system-mux fallback where `want` is nullopt.
std::string planned(const std::optional<Route>& want, unsigned mux_arrival) {
  if (want) return describe(want);
  Route mux;
  mux.via_system_mux = true;
  mux.arrival = mux_arrival;
  return describe(mux);
}

struct Sweep {
  unsigned cases = 0;
  unsigned routes = 0;
  unsigned unrouted = 0;
  unsigned po_ties = 0;
  std::vector<std::string> mismatches;

  void expect(const std::string& where, const std::string& got,
              const std::string& want) {
    ++routes;
    if (got != want) {
      mismatches.push_back(where + ": got '" + got + "', want '" + want + "'");
    }
  }

  std::string report() const {
    std::string text = std::to_string(mismatches.size()) + " of " +
                       std::to_string(routes) + " routes differ";
    for (std::size_t i = 0; i < mismatches.size() && i < 8; ++i) {
      text += "\n  " + mismatches[i];
    }
    return text;
  }
};

/// Runs `check(soc, selection, where)` on seeded 8- and 16-core SOCs, each
/// at the all-min, the all-max and one seeded selection.
template <typename Check>
void sweep_synthetic_socs(Check check) {
  for (unsigned cores : {8u, 16u}) {
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
      systems::SyntheticSocOptions options;
      options.cores = cores;
      const auto system = systems::make_synthetic_system(seed, options);
      const Soc& soc = *system.soc;
      util::Rng rng(seed * 131 + cores);
      std::vector<unsigned> all_min(soc.cores().size(), 0);
      std::vector<unsigned> all_max;
      std::vector<unsigned> seeded;
      for (const core::Core* core : soc.cores()) {
        const auto versions = static_cast<unsigned>(core->version_count());
        all_max.push_back(versions - 1);
        seeded.push_back(static_cast<unsigned>(rng.next_below(versions)));
      }
      const std::string where = "cores " + std::to_string(cores) +
                                " seed " + std::to_string(seed);
      check(soc, all_min, where + " all-min");
      check(soc, all_max, where + " all-max");
      check(soc, seeded, where + " seeded");
    }
  }
}

// ----------------------------------------------------------------- tests

TEST(RouteOracle, RoutesMatchExhaustiveSearch) {
  Sweep sweep;
  const auto reference_to_pos = [&sweep](const Ccg& ccg, std::uint32_t source,
                                         Reservations& reservations,
                                         unsigned earliest,
                                         std::int32_t banned) {
    return reference_route_to_pos(ccg, source, reservations, earliest, banned,
                                  &sweep.po_ties);
  };
  sweep_synthetic_socs([&](const Soc& soc,
                           const std::vector<unsigned>& selection,
                           const std::string& where) {
    const Ccg ccg(soc, selection);
    for (const bool ignore : {false, true}) {
      ++sweep.cases;
      const auto got = replay(soc, ccg, ignore, route_from_pis, route_to_pos);
      const auto want = replay(soc, ccg, ignore, reference_route_from_pis,
                               reference_to_pos);
      const std::string mode = ignore ? " unreserved" : "";
      for (std::size_t c = 0; c < want.size(); ++c) {
        const std::string at = where + mode + " core " + std::to_string(c);
        for (std::size_t i = 0; i < want[c].inputs.size(); ++i) {
          sweep.unrouted += !want[c].inputs[i];
          sweep.expect(at + " input " + std::to_string(i),
                       describe(got[c].inputs[i]),
                       describe(want[c].inputs[i]));
        }
        for (std::size_t i = 0; i < want[c].outputs.size(); ++i) {
          sweep.unrouted += !want[c].outputs[i];
          sweep.expect(at + " output " + std::to_string(i),
                       describe(got[c].outputs[i]),
                       describe(want[c].outputs[i]));
        }
      }
    }
  });
  EXPECT_EQ(sweep.cases, 2u * 2u * 24u * 3u);
  EXPECT_TRUE(sweep.mismatches.empty()) << sweep.report();
  // Without mux fallbacks and PO ties the sweep could not tell an
  // exhaustive search from a truncated one.
  EXPECT_GT(sweep.unrouted, 0u);
  EXPECT_GT(sweep.po_ties, 0u);
}

TEST(RouteOracle, PlansMatchExhaustiveSearch) {
  Sweep sweep;
  const auto reference_to_pos = [&sweep](const Ccg& ccg, std::uint32_t source,
                                         Reservations& reservations,
                                         unsigned earliest,
                                         std::int32_t banned) {
    return reference_route_to_pos(ccg, source, reservations, earliest, banned,
                                  &sweep.po_ties);
  };
  sweep_synthetic_socs([&](const Soc& soc,
                           const std::vector<unsigned>& selection,
                           const std::string& where) {
    const Ccg ccg(soc, selection);
    for (const bool ignore : {false, true}) {
      ++sweep.cases;
      PlanOptions options;
      options.ignore_reservations = ignore;
      const ChipTestPlan plan = plan_chip_test(soc, selection, options);
      const auto want = replay(soc, ccg, ignore, reference_route_from_pis,
                               reference_to_pos);
      ASSERT_EQ(plan.cores.size(), want.size()) << where;
      const std::string mode = ignore ? " unreserved" : "";
      for (std::size_t c = 0; c < want.size(); ++c) {
        const CoreTestPlan& core = plan.cores[c];
        const std::string at = where + mode + " core " + std::to_string(c);
        ASSERT_EQ(core.input_routes.size(), want[c].inputs.size()) << at;
        ASSERT_EQ(core.output_routes.size(), want[c].outputs.size()) << at;
        for (std::size_t i = 0; i < want[c].inputs.size(); ++i) {
          sweep.expect(at + " input " + std::to_string(i),
                       describe(core.input_routes[i].second),
                       planned(want[c].inputs[i], 1));
        }
        for (std::size_t i = 0; i < want[c].outputs.size(); ++i) {
          sweep.expect(at + " output " + std::to_string(i),
                       describe(core.output_routes[i].second),
                       planned(want[c].outputs[i], 0));
        }
      }
    }
  });
  EXPECT_EQ(sweep.cases, 2u * 2u * 24u * 3u);
  EXPECT_TRUE(sweep.mismatches.empty()) << sweep.report();
  EXPECT_GT(sweep.po_ties, 0u);
}

}  // namespace
}  // namespace socet::soc
