// Scaling benchmarks over fixed work units.
//
// Workloads:
//   * register-chain core -> RCG extraction + version synthesis;
//   * a pipeline of pass-through cores -> CCG planning with reservations;
//   * System 1 design-space enumeration;
//   * parallel-pattern fault simulation of 768 patterns on a fixed
//     3k-gate netlist (512-pattern lanes), gated on the exact number of
//     faults it detects.
//
// Each workload runs a fixed number of iterations under std::chrono, so
// the bench's wall time moves when the kernels get faster.  (The old
// google-benchmark version auto-scaled its iteration counts to a fixed
// measurement budget, which pinned wall time near ~12 s no matter what
// the code did — kernel wins were invisible to the regression gate.)
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"

#include "socet/core/core.hpp"
#include "socet/faultsim/scan_sim.hpp"
#include "socet/opt/optimize.hpp"
#include "socet/soc/schedule.hpp"
#include "socet/systems/systems.hpp"
#include "socet/util/rng.hpp"

namespace {

using namespace socet;

template <typename F>
double time_ms(F&& body) {
  const auto t0 = std::chrono::steady_clock::now();
  body();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// A core with a scan-friendly chain of `depth` registers.
rtl::Netlist make_chain_core(const std::string& name, unsigned depth) {
  rtl::Netlist n(name);
  auto in = n.add_input("IN", 8);
  auto out = n.add_output("OUT", 8);
  rtl::PinRef prev = n.pin(in);
  for (unsigned i = 0; i < depth; ++i) {
    auto r = n.add_register("R" + std::to_string(i), 8);
    auto m = n.add_mux("M" + std::to_string(i), 8, 2);
    auto k = n.add_constant("K" + std::to_string(i), util::BitVector(8, 0));
    n.connect(prev, n.mux_in(m, 0));
    n.connect(n.const_out(k), n.mux_in(m, 1));
    n.connect(n.mux_out(m), n.reg_d(r));
    prev = n.reg_q(r);
  }
  n.connect(prev, n.pin(out));
  return n;
}

double bench_core_preparation(unsigned depth, unsigned iterations) {
  return time_ms([&] {
    for (unsigned i = 0; i < iterations; ++i) {
      auto core = core::Core::prepare(make_chain_core("chain", depth));
      if (core.version_count() == 0) std::abort();
    }
  });
}

double bench_chip_planning(unsigned cores, unsigned iterations) {
  std::vector<core::Core> prepared;
  prepared.reserve(cores);
  for (unsigned i = 0; i < cores; ++i) {
    prepared.push_back(
        core::Core::prepare(make_chain_core("c" + std::to_string(i), 4)));
    prepared.back().set_scan_vectors(50);
  }
  soc::Soc soc("pipeline");
  auto pi = soc.add_pi("PI", 8);
  auto po = soc.add_po("PO", 8);
  for (unsigned i = 0; i < cores; ++i) soc.add_core(&prepared[i]);
  soc.connect(pi, 0, "IN");
  for (unsigned i = 0; i + 1 < cores; ++i) soc.connect(i, "OUT", i + 1, "IN");
  soc.connect(cores - 1, "OUT", po);

  const std::vector<unsigned> selection(cores, 0);
  return time_ms([&] {
    for (unsigned i = 0; i < iterations; ++i) {
      auto plan = soc::plan_chip_test(soc, selection);
      if (plan.total_tat <= 0) std::abort();
    }
  });
}

double bench_design_space(unsigned iterations) {
  return time_ms([&] {
    for (unsigned i = 0; i < iterations; ++i) {
      auto system = systems::make_barcode_system();
      auto points = opt::enumerate_design_space(*system.soc);
      if (points.empty()) std::abort();
    }
  });
}

/// Random layered DAG (deterministic via seed) sized so fault simulation
/// dominates the fault-sim workload.
gate::GateNetlist make_random_netlist(util::Rng& rng, std::size_t n_inputs,
                                      std::size_t n_dffs,
                                      std::size_t n_gates) {
  gate::GateNetlist n("scalebench");
  std::vector<gate::GateId> nodes;
  for (std::size_t i = 0; i < n_inputs; ++i) {
    nodes.push_back(n.add_input("i" + std::to_string(i)));
  }
  std::vector<gate::GateId> dffs;
  for (std::size_t i = 0; i < n_dffs; ++i) {
    dffs.push_back(n.add_dff_floating("q" + std::to_string(i)));
    nodes.push_back(dffs.back());
  }
  static const gate::GateKind kKinds[] = {
      gate::GateKind::kAnd,  gate::GateKind::kOr,  gate::GateKind::kNand,
      gate::GateKind::kNor,  gate::GateKind::kXor, gate::GateKind::kXnor,
      gate::GateKind::kNot,  gate::GateKind::kBuf};
  for (std::size_t i = 0; i < n_gates; ++i) {
    const gate::GateKind kind = kKinds[rng.next_below(8)];
    const bool unary =
        kind == gate::GateKind::kNot || kind == gate::GateKind::kBuf;
    // Bias fanins toward recent nodes to get deep, narrow cones.
    auto pick = [&]() -> gate::GateId {
      const std::size_t window = std::min<std::size_t>(nodes.size(), 256);
      return nodes[nodes.size() - 1 - rng.next_below(window)];
    };
    std::vector<gate::GateId> fanin{pick()};
    if (!unary) {
      fanin.push_back(pick());
      if (fanin[0] == fanin[1]) fanin[1] = nodes[0];
    }
    nodes.push_back(n.add_gate(kind, fanin, "g" + std::to_string(i)));
  }
  for (std::size_t i = 0; i < n_dffs; ++i) {
    n.set_dff_input(dffs[i], nodes[nodes.size() - 1 - rng.next_below(16)]);
  }
  for (std::size_t i = 0; i < 8; ++i) {
    const gate::GateId g = nodes[nodes.size() - 1 - rng.next_below(n_gates / 2)];
    if (n.gate(g).kind != gate::GateKind::kDff) n.mark_output(g);
  }
  n.mark_output(nodes.back());
  return n;
}

/// Collapsed faults of the fault-sim workload the 768 patterns detect.
/// Fixed by the netlist and pattern seeds; every lane width and batch
/// size gives this count.
constexpr std::size_t kFaultSimDetected = 7310;

struct FaultSimResult {
  double ms = 0;
  std::size_t faults = 0;
  std::size_t detected = 0;  ///< of the last iteration
};

FaultSimResult bench_faultsim(unsigned iterations) {
  util::Rng rng(0xC0DE);
  const auto netlist = make_random_netlist(rng, 64, 48, 3000);
  const auto faults = faultsim::enumerate_faults(netlist);
  std::vector<faultsim::ScanPattern> patterns(768);
  for (auto& p : patterns) {
    p.pi = util::BitVector::random(netlist.inputs().size(), rng);
    p.ppi = util::BitVector::random(netlist.dffs().size(), rng);
  }

  FaultSimResult r;
  r.faults = faults.size();
  std::vector<faultsim::FaultStatus> statuses;
  // One simulator reused across iterations: that is how the ATPG regrade
  // loops drive it (the fanout-cone cache amortizes over runs).
  // Construction sits inside the timed region so cone building is paid.
  r.ms = time_ms([&] {
    faultsim::ScanFaultSim sim(netlist);
    for (unsigned i = 0; i < iterations; ++i) {
      statuses.assign(faults.size(), faultsim::FaultStatus::kUndetected);
      sim.run(faults, patterns, statuses);
    }
  });
  r.detected = faultsim::summarize(statuses).detected;
  return r;
}

}  // namespace

int main() {
  socet::bench::BenchReport bench_report("scaling");
  bench::print_header("scaling (fixed work)",
                      "algorithmic scaling + fault-sim kernel speed");

  const double core_prep_ms = bench_core_preparation(64, 3);
  const double chip_plan_ms = bench_chip_planning(32, 3);
  const double explore_ms = bench_design_space(2);
  const FaultSimResult fs = bench_faultsim(3);

  // Times go on the BENCH_ line only, so stdout is deterministic.
  util::Table table({"workload", "work"});
  table.add_row({"core preparation", "3x depth-64 chain"});
  table.add_row({"chip planning", "3x 32-core pipeline"});
  table.add_row({"design-space enumeration", "2x System 1"});
  table.add_row({"fault sim", "3x 3k gates, 768 pat"});
  std::printf("%s\n", table.to_text().c_str());
  std::printf("fault sim detected %zu of %zu collapsed faults\n", fs.detected,
              fs.faults);

  bench_report.metric("core_prep_ms", core_prep_ms);
  bench_report.metric("chip_plan_ms", chip_plan_ms);
  bench_report.metric("explore_ms", explore_ms);
  bench_report.metric("faultsim_ms", fs.ms);

  const bool ok = fs.detected == kFaultSimDetected;
  std::printf("shape check (fault sim detects exactly %zu faults): %s\n",
              kFaultSimDetected, ok ? "PASS" : "FAIL");
  return bench_report.finish(ok);
}
