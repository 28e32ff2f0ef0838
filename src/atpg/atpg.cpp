#include "socet/atpg/atpg.hpp"

#include <algorithm>

#include "socet/obs/metrics.hpp"
#include "socet/obs/trace.hpp"

namespace socet::atpg {

namespace {

using faultsim::Fault;
using faultsim::FaultStatus;
using faultsim::ScanFaultSim;
using faultsim::ScanPattern;

ScanPattern random_pattern(const gate::GateNetlist& netlist, util::Rng& rng) {
  ScanPattern p;
  p.pi = util::BitVector::random(netlist.inputs().size(), rng);
  p.ppi = util::BitVector::random(netlist.dffs().size(), rng);
  return p;
}

}  // namespace

AtpgResult generate_tests(const gate::GateNetlist& netlist,
                          const AtpgOptions& options) {
  SOCET_SPAN("atpg/generate_tests");
  AtpgResult result;
  result.faults = faultsim::enumerate_faults(netlist);
  result.statuses.assign(result.faults.size(), FaultStatus::kUndetected);

  util::Rng rng(options.seed);
  ScanFaultSim sim(netlist);

  // Phase 1: random patterns, kept only if they detect something new.
  {
    SOCET_SPAN("atpg/random_phase");
    std::vector<ScanPattern> batch;
    for (unsigned i = 0; i < options.random_patterns; i += 16) {
      batch.clear();
      for (unsigned k = 0; k < 16 && i + k < options.random_patterns; ++k) {
        batch.push_back(random_pattern(netlist, rng));
      }
      auto before = faultsim::summarize(result.statuses).detected;
      sim.run(result.faults, batch, result.statuses);
      auto after = faultsim::summarize(result.statuses).detected;
      if (after > before) {
        SOCET_COUNT_N("atpg/random_patterns_kept", batch.size());
        result.patterns.insert(result.patterns.end(), batch.begin(),
                               batch.end());
      }
    }
  }

  // Phase 2: deterministic PODEM, two passes — a fail-fast pass with a
  // small backtrack budget (most faults are easy; fault dropping thins the
  // list), then a patient pass for the leftovers.
  const unsigned limits[2] = {
      std::min(options.backtrack_limit, 24u), options.backtrack_limit};
  const char* const pass_spans[2] = {"atpg/podem_fast", "atpg/podem_patient"};
  Podem podem(netlist);
  for (unsigned pass = 0; pass < 2; ++pass) {
    SOCET_SPAN(pass_spans[pass]);
    PodemOptions podem_options;
    podem_options.backtrack_limit = limits[pass];
    for (std::size_t fi = 0; fi < result.faults.size(); ++fi) {
      if (result.statuses[fi] != FaultStatus::kUndetected &&
          !(pass == 1 && result.statuses[fi] == FaultStatus::kAborted)) {
        continue;
      }
      PodemResult pr = podem.run(result.faults[fi], podem_options);
      SOCET_COUNT("atpg/podem_calls");
      SOCET_COUNT_N("atpg/backtracks", pr.backtracks);
      switch (pr.outcome) {
        case PodemResult::Outcome::kUntestable:
          result.statuses[fi] = FaultStatus::kUntestable;
          break;
        case PodemResult::Outcome::kAborted:
          result.statuses[fi] = FaultStatus::kAborted;
          break;
        case PodemResult::Outcome::kFound: {
          result.statuses[fi] = FaultStatus::kUndetected;  // for the sim
          // Random-fill the don't-cares for incidental detection.
          for (std::size_t b = 0; b < pr.pi_dont_care.size(); ++b) {
            if (pr.pi_dont_care[b]) pr.pattern.pi.set(b, rng.next_bool());
          }
          for (std::size_t b = 0; b < pr.ppi_dont_care.size(); ++b) {
            if (pr.ppi_dont_care[b]) pr.pattern.ppi.set(b, rng.next_bool());
          }
          sim.run(result.faults, {pr.pattern}, result.statuses);
          SOCET_ASSERT(result.statuses[fi] == FaultStatus::kDetected,
                       "PODEM pattern failed to detect its target fault");
          result.patterns.push_back(std::move(pr.pattern));
          break;
        }
      }
    }
  }

  // Final regrade: a fault that aborted early may still be detected
  // incidentally by patterns generated later (dropping skipped it once it
  // was marked).  One full-set simulation settles it.
  {
    SOCET_SPAN("atpg/regrade");
    std::vector<std::size_t> aborted;
    for (std::size_t fi = 0; fi < result.faults.size(); ++fi) {
      if (result.statuses[fi] == FaultStatus::kAborted) {
        aborted.push_back(fi);
        result.statuses[fi] = FaultStatus::kUndetected;
      }
    }
    if (!aborted.empty()) {
      sim.run(result.faults, result.patterns, result.statuses);
      for (std::size_t fi : aborted) {
        if (result.statuses[fi] == FaultStatus::kUndetected) {
          result.statuses[fi] = FaultStatus::kAborted;
        }
      }
    }
  }
  std::size_t aborted_final = 0;
  for (const FaultStatus status : result.statuses) {
    if (status == FaultStatus::kAborted) ++aborted_final;
  }
  SOCET_COUNT_N("atpg/aborted_faults", aborted_final);
  return result;
}

faultsim::CoverageSummary grade_patterns(
    const gate::GateNetlist& netlist,
    const std::vector<ScanPattern>& patterns) {
  auto faults = faultsim::enumerate_faults(netlist);
  std::vector<FaultStatus> statuses(faults.size(), FaultStatus::kUndetected);
  ScanFaultSim sim(netlist);
  sim.run(faults, patterns, statuses);
  return faultsim::summarize(statuses);
}

std::vector<ScanPattern> compact_patterns(
    const gate::GateNetlist& netlist,
    const std::vector<ScanPattern>& patterns) {
  auto faults = faultsim::enumerate_faults(netlist);
  std::vector<FaultStatus> statuses(faults.size(), FaultStatus::kUndetected);
  ScanFaultSim sim(netlist);
  std::vector<ScanPattern> kept;
  kept.reserve(patterns.size());
  for (auto it = patterns.rbegin(); it != patterns.rend(); ++it) {
    const auto before = faultsim::summarize(statuses).detected;
    sim.run(faults, {*it}, statuses);
    if (faultsim::summarize(statuses).detected > before) {
      kept.push_back(*it);
    }
  }
  // Keep the (reverse-simulation) detection order stable for determinism.
  std::reverse(kept.begin(), kept.end());
  return kept;
}

std::vector<util::BitVector> random_sequence(const gate::GateNetlist& netlist,
                                             std::size_t cycles,
                                             std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<util::BitVector> sequence;
  sequence.reserve(cycles);
  for (std::size_t c = 0; c < cycles; ++c) {
    sequence.push_back(
        util::BitVector::random(netlist.inputs().size(), rng));
  }
  return sequence;
}

faultsim::CoverageSummary sequential_coverage(const gate::GateNetlist& netlist,
                                              std::size_t cycles,
                                              std::uint64_t seed) {
  auto faults = faultsim::enumerate_faults(netlist);
  std::vector<FaultStatus> statuses(faults.size(), FaultStatus::kUndetected);
  faultsim::SequentialFaultSim sim(netlist);
  sim.run(faults, random_sequence(netlist, cycles, seed), statuses);
  return faultsim::summarize(statuses);
}

}  // namespace socet::atpg
