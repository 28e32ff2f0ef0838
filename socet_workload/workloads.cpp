// socet_workload — the SOCET benchmark program.
//
//   socet_workload --workload <name> [--seed N] [--seconds S]
//                  [--trace FILE] [--smoke]
//
// One workload per process.  The program makes the workload's inputs from
// the seed, sets the workload up several times (set-up time is reported
// as the median), then runs whole rounds of the workload's fixed work set,
// as many as fit in S seconds and at least one, calling only the
// library's public functions.  Afterwards, untimed, it checks the
// outputs: invariants at any seed, and the exact lines pinned in
// golden/<workload>.txt when that file has lines for the seed.
//
// Output: one `name value unit` row per metric, one `exact ...` line per
// result the goldens pin, `FAIL ...` lines for failed checks, and as the
// last line one JSON object (workload, seed, correct, attempted, failed,
// metrics).  Exit code 0 when every check passed, 1 otherwise.
//
// --trace FILE adds a traced pass after the measured one: a fresh set-up
// and one round with the library's metrics on, and spans on for the
// set-up and the first operations.  It writes a Chrome trace (input to
// `socet trace-analyze`) and reports the library counters per round.
// End-to-end numbers always come from the untraced pass.  No tracing
// overhead is reported: the traced round starts cold (serve_mix's first
// block runs about a third longer than later ones), so its time against
// the untraced rounds would not isolate the cost of tracing.
//
// --smoke shrinks every workload (GCD only, System 2 at 8 cycles, 8-core
// SOCs, 200 requests) and runs one round; without --workload it runs all
// four.  The goldens do not apply to smoke runs.
#include <malloc.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "socet/atpg/atpg.hpp"
#include "socet/core/core.hpp"
#include "socet/faultsim/seq_sim.hpp"
#include "socet/obs/metrics.hpp"
#include "socet/obs/report.hpp"
#include "socet/obs/trace.hpp"
#include "socet/opt/optimize.hpp"
#include "socet/service/cache.hpp"
#include "socet/service/protocol.hpp"
#include "socet/service/server.hpp"
#include "socet/service/service.hpp"
#include "socet/soc/flatten.hpp"
#include "socet/soc/schedule.hpp"
#include "socet/soc/validate.hpp"
#include "socet/synth/elaborate.hpp"
#include "socet/systems/synthetic.hpp"
#include "socet/systems/systems.hpp"
#include "socet/util/rng.hpp"

namespace {

using namespace socet;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

/// Nearest-rank quantile (q in [0, 1]).
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

std::string number(double value) {
  if (!std::isfinite(value)) value = 0;
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

using service::fnv1a;

std::string hex(std::uint64_t value) {
  char buffer[20];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

/// Milliseconds spent in each layer, keyed by metric name.
using Layers = std::map<std::string, double>;

/// What one pass of rounds accumulates: layer times, one latency per
/// operation, and the span window of a traced pass.
struct Pass {
  Layers layers;
  std::vector<double> op_ms;
  /// Operations still to trace; spans stop after them.  The library opens
  /// a span per CCG core plan, so a whole soc_optimize round would record
  /// millions.
  std::size_t traced_ops_left = 0;

  void op(double ms) {
    op_ms.push_back(ms);
    if (traced_ops_left > 0 && --traced_ops_left == 0) {
      obs::set_trace_enabled(false);
    }
  }
};

/// Run `call`, adding its wall time to `ms`.  `span` names a bench-side
/// trace span around the call; nullptr where the library already opens a
/// span of the same name inside it.
template <class F>
decltype(auto) timed(const char* span, double& ms, F&& call) {
  std::optional<obs::Span> guard;
  if (span != nullptr) guard.emplace(span);
  struct Stopwatch {
    double& ms;
    Clock::time_point start = Clock::now();
    ~Stopwatch() { ms += ms_since(start); }
  } stopwatch{ms};
  return call();
}

/// What verification produces: failed checks, the lines the goldens pin
/// (each led by `prefix`), and metrics derived from the outputs.
struct Results {
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };

  std::string prefix;
  std::vector<std::string> failures;
  std::vector<std::string> exact_lines;
  std::vector<Metric> metrics;

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  void exact(const std::string& line) { exact_lines.push_back(prefix + line); }
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

/// soc::validate_plan must find nothing wrong with `plan`.
void check_plan(Results& results, const soc::Soc& soc,
                const std::vector<unsigned>& selection,
                const soc::ChipTestPlan& plan, const std::string& what) {
  const auto violations = soc::validate_plan(soc, selection, plan);
  results.check(violations.empty(),
                what + " plan: " +
                    (violations.empty() ? "" : violations.front()));
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build what the timed phase needs.  Timed as set-up.
  virtual void setup(Layers& layers) = 0;
  /// One round of the fixed work set; reports each operation's latency
  /// to `pass`.
  virtual void round(Pass& pass) = 0;
  /// Untimed: check the outputs of the rounds run so far.
  virtual void verify(Results& results) = 0;
};

// ---------------------------------------------------------------------------
// core_atpg: per-core full-scan ATPG, compaction and grading on the six
// paper cores, then both systems' chip plans from the measured test sets.

class CoreAtpg final : public Workload {
 public:
  CoreAtpg(std::uint64_t seed, bool smoke) : seed_(seed), smoke_(smoke) {}

  void setup(Layers& layers) override {
    double& build_ms = layers["transparency.system_build_ms"];
    systems_.push_back(timed("transparency/system_build", build_ms,
                             [] { return systems::make_barcode_system(); }));
    systems_.push_back(timed("transparency/system_build", build_ms,
                             [] { return systems::make_system2(); }));
    for (std::size_t s = 0; s < systems_.size(); ++s) {
      for (auto& core : systems_[s].cores) {
        if (smoke_ && core->name() != "GCD") continue;
        CoreRun run;
        run.core = core.get();
        run.system = s;
        run.elab = timed("synth/elaborate", layers["synth.elaborate_ms"],
                         [&] { return synth::elaborate(core->netlist()); });
        cores_.push_back(std::move(run));
      }
    }
  }

  void round(Pass& pass) override {
    Layers& layers = pass.layers;
    for (CoreRun& run : cores_) {
      const auto& gates = run.elab.gates;
      const auto start = Clock::now();
      double generate_ms = 0;
      run.result = timed("atpg/generate", generate_ms, [&] {
        return atpg::generate_tests(gates,
                                    {.random_patterns = 64, .seed = seed_});
      });
      run.compacted =
          timed("faultsim/compact", layers["faultsim.compact_ms"], [&] {
            return atpg::compact_patterns(gates, run.result.patterns);
          });
      run.compacted_coverage =
          timed("faultsim/grade", layers["faultsim.grade_ms"],
                [&] { return atpg::grade_patterns(gates, run.compacted); });
      layers["atpg.generate_ms"] += generate_ms;
      layers["atpg.generate_ms." + run.core->name()] += generate_ms;
      pass.op(ms_since(start));
    }
    plans_.clear();
    for (std::size_t s = 0; s < systems_.size(); ++s) {
      bool measured = false;
      for (CoreRun& run : cores_) {
        if (run.system != s) continue;
        run.core->set_scan_vectors(
            static_cast<unsigned>(run.result.vector_count()));
        measured = true;
      }
      if (!measured) continue;
      const soc::Soc& soc = *systems_[s].soc;
      SystemPlans plans;
      plans.system = s;
      plans.min_area.assign(soc.cores().size(), 0);
      plans.min_area_plan = timed("soc/plan", layers["soc.plan_ms"], [&] {
        return soc::plan_chip_test(soc, plans.min_area);
      });
      plans.min_tat = timed(nullptr, layers["opt.minimize_tat_ms"],
                            [&] { return opt::minimize_tat(soc, 1'000'000); });
      plans_.push_back(std::move(plans));
    }
  }

  void verify(Results& results) override {
    std::size_t vectors = 0;
    std::size_t compacted = 0;
    faultsim::CoverageSummary chip;
    for (const CoreRun& run : cores_) {
      const auto& name = run.core->name();
      const auto coverage = run.result.coverage();
      const auto regraded =
          atpg::grade_patterns(run.elab.gates, run.result.patterns);
      results.check(regraded.detected == coverage.detected,
                    name + ": regrade detects " +
                        std::to_string(regraded.detected) + ", ATPG " +
                        std::to_string(coverage.detected));
      results.check(run.compacted_coverage.detected == coverage.detected,
                    name + ": compaction changed detected faults " +
                        std::to_string(coverage.detected) + " -> " +
                        std::to_string(run.compacted_coverage.detected));
      results.exact("core=" + name +
                    " vectors=" + std::to_string(run.result.vector_count()) +
                    " compacted=" + std::to_string(run.compacted.size()) +
                    " faults=" + std::to_string(coverage.total) +
                    " detected=" + std::to_string(coverage.detected) +
                    " untestable=" + std::to_string(coverage.untestable) +
                    " aborted=" + std::to_string(coverage.aborted));
      vectors += run.result.vector_count();
      compacted += run.compacted.size();
      chip.total += coverage.total;
      chip.detected += coverage.detected;
      chip.aborted += coverage.aborted;
    }
    unsigned long long tat = 0;
    unsigned long long cells = 0;
    for (const SystemPlans& plans : plans_) {
      const soc::Soc& soc = *systems_[plans.system].soc;
      const std::string name = plans.system == 0 ? "barcode" : "system2";
      check_plan(results, soc, plans.min_area, plans.min_area_plan,
                 name + " min-area");
      check_plan(results, soc, plans.min_tat.selection, plans.min_tat.plan,
                 name + " min-TAT");
      const auto replanned = soc::plan_chip_test(soc, plans.min_tat.selection);
      results.check(replanned.total_tat == plans.min_tat.tat,
                    name + ": re-planning the min-TAT selection gives TAT " +
                        std::to_string(replanned.total_tat));
      std::string selection;
      for (unsigned v : plans.min_tat.selection) {
        selection += (selection.empty() ? "" : "/") + std::to_string(v + 1);
      }
      results.exact(
          "system=" + name +
          " tat_min_area=" + std::to_string(plans.min_area_plan.total_tat) +
          " tat_min_tat=" + std::to_string(plans.min_tat.tat) +
          " overhead_min_tat=" + std::to_string(plans.min_tat.overhead_cells) +
          " selection=" + selection);
      tat += plans.min_tat.tat;
      cells += plans.min_tat.overhead_cells;
    }
    results.metric("atpg.test_vectors", static_cast<double>(vectors), "count");
    results.metric("atpg.compacted_vectors", static_cast<double>(compacted),
                   "count");
    results.metric("atpg.fault_coverage_pct", chip.fault_coverage(), "%");
    results.metric("atpg.aborted_faults", static_cast<double>(chip.aborted),
                   "count");
    results.metric("soc.chip_tat_cycles", static_cast<double>(tat), "cycles");
    results.metric("soc.overhead_cells", static_cast<double>(cells), "cells");
  }

 private:
  struct CoreRun {
    core::Core* core = nullptr;
    std::size_t system = 0;
    synth::Elaboration elab;
    atpg::AtpgResult result;
    std::vector<faultsim::ScanPattern> compacted;
    faultsim::CoverageSummary compacted_coverage;
  };
  struct SystemPlans {
    std::size_t system = 0;
    std::vector<unsigned> min_area;
    soc::ChipTestPlan min_area_plan;
    opt::DesignPoint min_tat;
  };

  std::uint64_t seed_;
  bool smoke_;
  std::vector<systems::System> systems_;
  std::vector<CoreRun> cores_;
  std::vector<SystemPlans> plans_;
};

// ---------------------------------------------------------------------------
// chip_seqsim: whole-chip random sequential fault simulation of both
// systems in the three Table 3 / ablation DFT modes.
//
// The modes and the scan stitching below define this workload, so they
// live here rather than in the paper benches' shared header: a change to
// those benches must not change what this benchmark measures.

/// Whole-chip DFT mode.
enum class ChipMode {
  /// No DFT at all (Table 3 "Orig." row).
  kNoDft,
  /// Cores carry their HSCAN chains but nothing drives ScanEnable, which
  /// stays low (Table 3 "HSCAN" row).
  kHscanUnreachable,
  /// Ablation: one bonded test pin drives ScanEnable.
  kHscanWithTestPin,
};

/// Each core's HSCAN chains on the flattened chip, with their scan-in
/// pins bound to whatever drives the chain-head port at chip level.
synth::ScanOptions flat_scan_options(const soc::Soc& soc,
                                     const soc::FlattenResult& flat) {
  synth::ScanOptions scan;
  for (std::uint32_t c = 0; c < soc.cores().size(); ++c) {
    const core::Core& core = soc.core(c);
    for (const auto& chain : core.hscan().chains) {
      synth::ScanOptions::Chain spec;
      for (rtl::RegisterId reg : chain.registers) {
        spec.registers.push_back(flat.chip.find_register(
            core.name() + "." + core.netlist().reg(reg).name));
      }
      const auto& head_name = core.netlist().port(chain.head).name;
      spec.scan_in =
          flat.chip.fu_out(flat.instances[c].port_proxies.at(head_name));
      scan.chains.push_back(std::move(spec));
    }
  }
  return scan;
}

class ChipSeqsim final : public Workload {
 public:
  ChipSeqsim(std::uint64_t seed, bool smoke)
      : seed_(seed), cycles_(smoke ? 8 : 96), smoke_(smoke) {}

  void setup(Layers& layers) override {
    static constexpr struct {
      ChipMode mode;
      const char* name;
    } kModes[] = {{ChipMode::kNoDft, "no_dft"},
                  {ChipMode::kHscanUnreachable, "hscan"},
                  {ChipMode::kHscanWithTestPin, "test_pin"}};
    for (const char* system_name : {"barcode", "system2"}) {
      if (smoke_ && std::string(system_name) != "system2") continue;
      const auto system =
          timed("transparency/system_build",
                layers["transparency.system_build_ms"], [&] {
                  return std::string(system_name) == "barcode"
                             ? systems::make_barcode_system()
                             : systems::make_system2();
                });
      const auto flat = timed("soc/flatten", layers["soc.flatten_ms"],
                              [&] { return soc::flatten(*system.soc); });
      for (const auto& [mode, mode_name] : kModes) {
        Config config;
        config.name = std::string(system_name) + "." + mode_name;
        config.elab =
            timed("synth/elaborate", layers["synth.elaborate_ms"], [&] {
              return mode == ChipMode::kNoDft
                         ? synth::elaborate(flat.chip)
                         : synth::elaborate_with_scan(
                               flat.chip, flat_scan_options(*system.soc, flat));
            });
        const auto& gates = config.elab.gates;
        config.faults = faultsim::enumerate_faults(gates);
        config.sequence = atpg::random_sequence(gates, cycles_, seed_);
        if (mode == ChipMode::kHscanUnreachable) {
          const auto& inputs = gates.inputs();
          for (std::size_t i = 0; i < inputs.size(); ++i) {
            if (gates.gate(inputs[i]).name != "ScanEnable") continue;
            for (auto& vector : config.sequence) vector.set(i, false);
          }
        }
        configs_.push_back(std::move(config));
      }
    }
  }

  void round(Pass& pass) override {
    for (Config& config : configs_) {
      config.statuses.assign(config.faults.size(),
                             faultsim::FaultStatus::kUndetected);
      double ms = 0;
      timed("faultsim/seq", ms, [&] {
        faultsim::SequentialFaultSim(config.elab.gates)
            .run(config.faults, config.sequence, config.statuses);
      });
      pass.layers["faultsim.seq_ms"] += ms;
      pass.layers["faultsim.seq_ms." + config.name] += ms;
      pass.op(ms);
    }
  }

  void verify(Results& results) override {
    double gate_evals = 0;
    std::size_t detected = 0;
    for (const Config& config : configs_) {
      const auto summary = faultsim::summarize(config.statuses);
      // Every 7th fault simulated as a list of its own lands in other
      // lanes and passes than in the full run; its verdicts must match.
      std::vector<faultsim::Fault> sample;
      for (std::size_t i = 0; i < config.faults.size(); i += 7) {
        sample.push_back(config.faults[i]);
      }
      std::vector<faultsim::FaultStatus> statuses(
          sample.size(), faultsim::FaultStatus::kUndetected);
      faultsim::SequentialFaultSim sim(config.elab.gates);
      sim.run(sample, config.sequence, statuses);
      std::size_t mismatches = 0;
      for (std::size_t j = 0; j < sample.size(); ++j) {
        if (statuses[j] != config.statuses[j * 7]) ++mismatches;
      }
      results.check(mismatches == 0,
                    config.name + ": " + std::to_string(mismatches) +
                        " of every-7th faults disagree with the full run");
      results.exact("config=" + config.name +
                    " faults=" + std::to_string(summary.total) +
                    " detected=" + std::to_string(summary.detected));
      detected += summary.detected;
      const double passes =
          std::ceil(static_cast<double>(config.faults.size()) / 63.0);
      gate_evals += passes * static_cast<double>(cycles_) *
                    static_cast<double>(config.elab.gates.gate_count());
    }
    results.metric("faultsim.seq_detected", static_cast<double>(detected),
                   "count");
    results.metric("faultsim.seq_gate_evals", gate_evals, "count");
  }

 private:
  struct Config {
    std::string name;
    synth::Elaboration elab;
    std::vector<faultsim::Fault> faults;
    std::vector<util::BitVector> sequence;
    std::vector<faultsim::FaultStatus> statuses;
  };

  std::uint64_t seed_;
  std::size_t cycles_;
  bool smoke_;
  std::vector<Config> configs_;
};

// ---------------------------------------------------------------------------
// soc_optimize: CCG planning and the Section 5.2 optimizer over a pool of
// seeded synthetic SOCs of three sizes.

class SocOptimize final : public Workload {
 public:
  SocOptimize(std::uint64_t seed, bool smoke) {
    // Many mid-size SOCs rather than a few large ones: optimizer time
    // varies by a third from one random SOC to the next, so only a large
    // pool makes a round's time repeat across seeds.  A few 32-core SOCs
    // keep the steep end of the optimizer's growth with core count in the
    // round.
    const std::vector<std::pair<unsigned, unsigned>> classes =
        smoke ? std::vector<std::pair<unsigned, unsigned>>{{8, 4}}
              : std::vector<std::pair<unsigned, unsigned>>{
                    {8, 100}, {16, 360}, {24, 12}, {32, 4}};
    util::Rng rng(seed);
    for (const auto& [cores, count] : classes) {
      for (unsigned i = 0; i < count; ++i) {
        SocRun run;
        run.cores = cores;
        run.seed = rng.next_u64() >> 16;
        socs_.push_back(std::move(run));
      }
    }
    // Sizes interleaved, so the traced operations sample every size.
    for (std::size_t i = socs_.size(); i > 1; --i) {
      std::swap(socs_[i - 1], socs_[rng.next_below(i)]);
    }
  }

  void setup(Layers& layers) override {
    for (SocRun& run : socs_) {
      systems::SyntheticSocOptions options;
      options.cores = run.cores;
      run.system = timed("transparency/system_build",
                         layers["transparency.system_build_ms"], [&] {
                           return systems::make_synthetic_system(run.seed,
                                                                 options);
                         });
      const soc::Soc& soc = *run.system.soc;
      run.min.assign(soc.cores().size(), 0);
      run.max.clear();
      for (std::uint32_t c = 0; c < soc.cores().size(); ++c) {
        run.max.push_back(
            static_cast<unsigned>(soc.core(c).version_count() - 1));
      }
    }
  }

  void round(Pass& pass) override {
    Layers& layers = pass.layers;
    for (SocRun& run : socs_) {
      const soc::Soc& soc = *run.system.soc;
      const auto start = Clock::now();
      run.min_plan = timed("soc/plan", layers["soc.plan_ms"],
                           [&] { return soc::plan_chip_test(soc, run.min); });
      run.max_plan = timed("soc/plan", layers["soc.plan_ms"],
                           [&] { return soc::plan_chip_test(soc, run.max); });
      run.min_tat = timed(nullptr, layers["opt.minimize_tat_ms"],
                          [&] { return opt::minimize_tat(soc, 1'000'000); });
      const unsigned long long budget =
          (run.min_plan.total_tat + run.min_tat.tat) / 2;
      run.min_area = timed(nullptr, layers["opt.minimize_area_ms"],
                           [&] { return opt::minimize_area(soc, budget); });
      run.weighted = timed(nullptr, layers["opt.minimize_weighted_ms"], [&] {
        return opt::minimize_weighted(soc, 1, 1);
      });
      const double ms = ms_since(start);
      pass.op(ms);
      class_ms_[run.cores].push_back(ms);
    }
  }

  void verify(Results& results) override {
    std::map<unsigned, std::uint64_t> digest;
    std::map<unsigned, unsigned long long> tat_sum;
    std::map<unsigned, unsigned long long> area_sum;
    unsigned long long tat = 0;
    unsigned long long cells = 0;
    for (const SocRun& run : socs_) {
      const soc::Soc& soc = *run.system.soc;
      const std::string name = "synthetic:" + std::to_string(run.seed) + ":" +
                               std::to_string(run.cores);
      check_plan(results, soc, run.min, run.min_plan, name + " all-min");
      check_plan(results, soc, run.max, run.max_plan, name + " all-max");
      for (const opt::DesignPoint* point :
           {&run.min_tat, &run.min_area, &run.weighted}) {
        check_plan(results, soc, point->selection, point->plan,
                   name + " optimizer");
        const auto replanned = soc::plan_chip_test(soc, point->selection);
        results.check(replanned.total_tat == point->tat,
                      name + ": re-planning an optimizer selection gives " +
                          std::to_string(replanned.total_tat) +
                          " cycles, the optimizer reported " +
                          std::to_string(point->tat));
      }
      const std::string line =
          std::to_string(run.seed) + " " +
          std::to_string(run.min_plan.total_tat) + " " +
          std::to_string(run.max_plan.total_tat) + " " +
          std::to_string(run.min_tat.tat) + " " +
          std::to_string(run.min_tat.overhead_cells) + " " +
          std::to_string(run.min_area.tat) + " " +
          std::to_string(run.min_area.overhead_cells) + " " +
          std::to_string(run.weighted.tat) + " " +
          std::to_string(run.weighted.overhead_cells);
      auto& hash =
          digest.try_emplace(run.cores, service::kFnvOffsetBasis).first->second;
      hash = fnv1a(line + "\n", hash);
      tat_sum[run.cores] += run.min_tat.tat;
      area_sum[run.cores] += run.min_area.overhead_cells;
      tat += run.min_tat.tat;
      cells += run.min_area.overhead_cells;
    }
    for (const auto& [cores, hash] : digest) {
      results.exact("cores=" + std::to_string(cores) +
                    " min_tat_sum=" + std::to_string(tat_sum[cores]) +
                    " min_area_sum=" + std::to_string(area_sum[cores]) +
                    " digest=" + hex(hash));
    }
    for (const auto& [cores, ms] : class_ms_) {
      results.metric("opt.ms_c" + std::to_string(cores), median(ms), "ms");
    }
    results.metric("soc.chip_tat_cycles", static_cast<double>(tat), "cycles");
    results.metric("soc.overhead_cells", static_cast<double>(cells), "cells");
  }

 private:
  struct SocRun {
    unsigned cores = 0;
    std::uint64_t seed = 0;
    systems::System system;
    std::vector<unsigned> min;
    std::vector<unsigned> max;
    soc::ChipTestPlan min_plan;
    soc::ChipTestPlan max_plan;
    opt::DesignPoint min_tat;
    opt::DesignPoint min_area;
    opt::DesignPoint weighted;
  };

  std::vector<SocRun> socs_;
  std::map<unsigned, std::vector<double>> class_ms_;
};

// ---------------------------------------------------------------------------
// serve_mix: a closed loop of four connections, one request in flight
// each, against an in-process daemon with two workers.  80 % of requests
// repeat 32 paper-system lines warmed in set-up (cache hits); 20 % are
// unique lines over 64 synthetic SOCs (misses that compute and insert).

class ServeMix final : public Workload {
 public:
  static constexpr std::size_t kConnections = 4;
  static constexpr std::size_t kPoolSeeds = 64;
  static constexpr unsigned kPoolCores = 12;

  ServeMix(std::uint64_t seed, bool smoke)
      : seed_(seed), block_size_(smoke ? 200 : 2000) {
    for (const PoolSoc& soc : pool_socs(seed)) {
      pool_.emplace_back();
      pool_.back().soc = &soc;
    }
  }

  ~ServeMix() override { stop(); }
  ServeMix(const ServeMix&) = delete;
  ServeMix& operator=(const ServeMix&) = delete;

  void setup(Layers& /*layers*/) override {
    service::ServerOptions options;
    options.threads = 2;
    // Small enough to fill within the first three blocks, so memory does
    // not depend on how many blocks fit in the run; the hot lines, hit
    // every few dozen requests, never age out.
    options.cache_capacity = 1024;
    server_ = std::make_unique<service::Server>(std::move(options));
    server_->start();
    for (std::size_t c = 0; c < kConnections; ++c) {
      fds_.push_back(service::net_connect("127.0.0.1", server_->port()));
    }
    for (const std::string& line : hot_lines()) {
      service::write_frame(fds_[0], line);
      const auto response = service::read_frame(fds_[0]);
      util::require(response.has_value(), "server closed during warm-up");
    }
  }

  void round(Pass& pass) override {
    const auto block = make_block();
    const auto before = server_->stats();
    std::vector<std::string> responses(block.size());
    std::vector<double> latency(block.size(), 0);
    struct InFlight {
      std::size_t request = 0;
      Clock::time_point sent;
    };
    std::vector<std::optional<InFlight>> inflight(fds_.size());
    std::size_t next = 0;
    auto send = [&](std::size_t c) {
      if (next == block.size()) return;
      inflight[c] = InFlight{next, Clock::now()};
      service::write_frame(fds_[c], block[next].line);
      ++next;
    };
    for (std::size_t c = 0; c < fds_.size(); ++c) send(c);
    std::size_t done = 0;
    std::vector<pollfd> polled;
    while (done < block.size()) {
      polled.clear();
      for (std::size_t c = 0; c < fds_.size(); ++c) {
        if (inflight[c]) polled.push_back({fds_[c], POLLIN, 0});
      }
      if (::poll(polled.data(), polled.size(), -1) < 0) {
        util::require(errno == EINTR, "poll failed");
        continue;
      }
      for (const pollfd& p : polled) {
        if (p.revents == 0) continue;
        const std::size_t c = static_cast<std::size_t>(
            std::find(fds_.begin(), fds_.end(), p.fd) - fds_.begin());
        auto response = service::read_frame(p.fd);
        util::require(response.has_value(), "server closed a connection");
        const std::size_t r = inflight[c]->request;
        latency[r] = ms_since(inflight[c]->sent);
        pass.op(latency[r]);
        responses[r] = std::move(*response);
        inflight[c].reset();
        ++done;
        send(c);
      }
    }
    const auto after = server_->stats();
    cache_hits_ += after.cache.hits - before.cache.hits;
    cache_misses_ += after.cache.misses - before.cache.misses;

    for (std::size_t r = 0; r < block.size(); ++r) {
      const Request& request = block[r];
      if (responses[r].rfind("ok ", 0) != 0) {
        failed_.push_back(request.line + " -> " + responses[r]);
      }
      if (request.hot >= 0) {
        ++hot_requests_;
        hit_us_.push_back(latency[r] * 1000.0);
        hot_seen_[static_cast<std::size_t>(request.hot)].insert(responses[r]);
      } else {
        ++cold_requests_;
        miss_ms_.push_back(latency[r]);
        if (request.sampled) {
          cold_sample_.emplace_back(request.line, responses[r]);
        }
      }
      if (blocks_ == 0) {
        block0_digest_ = fnv1a(responses[r] + "\n", block0_digest_);
      }
    }
    ++blocks_;
  }

  void verify(Results& results) override {
    const auto stats = server_->stats();
    stop();
    for (const std::string& failure : failed_) {
      results.check(false, "non-ok response: " + failure);
    }
    service::PlanCache cache(4096);
    service::Executor executor(cache);
    const auto& hot = hot_lines();
    std::uint64_t ordinal = 0;
    for (std::size_t h = 0; h < hot.size(); ++h) {
      const auto reference = executor.run_line(hot[h], ++ordinal).record;
      for (const std::string& seen : hot_seen_[h]) {
        results.check(seen == reference, "hot '" + hot[h] + "' answered '" +
                                             seen + "', in-process '" +
                                             reference + "'");
      }
    }
    for (const auto& [line, response] : cold_sample_) {
      const auto reference = executor.run_line(line, ++ordinal).record;
      results.check(response == reference, "cold '" + line + "' answered '" +
                                               response + "', in-process '" +
                                               reference + "'");
    }
    results.check(cache_misses_ == cold_requests_ &&
                      cache_hits_ == hot_requests_,
                  "cache: " + std::to_string(cache_hits_) + " hits / " +
                      std::to_string(cache_misses_) + " misses for " +
                      std::to_string(hot_requests_) + " hot / " +
                      std::to_string(cold_requests_) + " cold requests");
    results.check(stats.busy_rejects == 0 && stats.errors == 0,
                  "server counted " + std::to_string(stats.busy_rejects) +
                      " busy rejects and " + std::to_string(stats.errors) +
                      " errors");
    results.exact("block0 requests=" + std::to_string(block_size_) +
                  " digest=" + hex(block0_digest_));

    const double total = static_cast<double>(hot_requests_ + cold_requests_);
    results.metric("service.hit_p50_us", median(hit_us_), "us");
    results.metric("service.hit_p99_us", quantile(hit_us_, 0.99), "us");
    results.metric("service.miss_p50_ms", median(miss_ms_), "ms");
    results.metric("service.miss_p99_ms", quantile(miss_ms_, 0.99), "ms");
    std::vector<double> all = miss_ms_;
    for (double us : hit_us_) all.push_back(us / 1000.0);
    results.metric("service.p99_ms", quantile(all, 0.99), "ms");
    results.metric("service.p99_tail_samples", std::floor(total * 0.01),
                   "count");
    results.metric("service.queue_hwm",
                   static_cast<double>(stats.queue_depth_hwm), "count");
    results.metric("service.cache_hit_ratio",
                   static_cast<double>(cache_hits_) /
                       static_cast<double>(cache_hits_ + cache_misses_),
                   "ratio");
    results.metric("service.busy_rejects",
                   static_cast<double>(stats.busy_rejects), "count");
    results.metric("service.errors", static_cast<double>(stats.errors),
                   "count");
  }

 private:
  struct PoolSoc {
    std::uint64_t seed = 0;
    std::vector<unsigned> versions;  ///< version count per core
  };
  /// A pool SOC and the cold lines drawn on it so far.
  struct Pool {
    const PoolSoc* soc = nullptr;
    unsigned optimize_lines = 0;
    std::set<std::vector<unsigned>> plans;
  };

  /// The pool's SOCs for `seed`, built once per process: every set-up
  /// repetition makes a fresh instance from the same inputs.
  static const std::vector<PoolSoc>& pool_socs(std::uint64_t seed) {
    static std::map<std::uint64_t, std::vector<PoolSoc>> made;
    const auto [it, inserted] = made.try_emplace(seed);
    if (!inserted) return it->second;
    util::Rng rng(seed);
    for (std::size_t i = 0; i < kPoolSeeds; ++i) {
      PoolSoc soc;
      soc.seed = rng.next_u64() >> 16;
      systems::SyntheticSocOptions options;
      options.cores = kPoolCores;
      const auto system = systems::make_synthetic_system(soc.seed, options);
      for (std::uint32_t c = 0; c < system.soc->cores().size(); ++c) {
        soc.versions.push_back(
            static_cast<unsigned>(system.soc->core(c).version_count()));
      }
      it->second.push_back(std::move(soc));
    }
    return it->second;
  }
  struct Request {
    std::string line;
    int hot = -1;  ///< index into hot_lines(), -1 for a cold request
    bool sampled = false;
  };

  static const std::vector<std::string>& hot_lines() {
    static const std::vector<std::string> lines = [] {
      std::vector<std::string> v;
      for (const char* system : {"barcode", "system2"}) {
        const std::string s = std::string(" system=") + system;
        v.push_back("explore" + s);
        v.push_back("parallel" + s);
        v.push_back("program" + s);
        for (const char* budget : {"0", "100", "200", "300"}) {
          v.push_back("optimize" + s + " area-budget=" + budget);
        }
        v.push_back("optimize" + s + " tat-budget=4000");
        v.push_back("optimize" + s + " tat-budget=8000");
        v.push_back("optimize" + s + " w1=1 w2=1");
        for (const char* selection :
             {"1,1,1", "2,1,1", "1,2,1", "1,1,2", "2,2,1", "2,2,2"}) {
          v.push_back("plan" + s + " selection=" + selection);
        }
      }
      return v;
    }();
    return lines;
  }

  /// The next block of requests.  Cold lines never repeat within a run:
  /// optimize lines step w2 by 2^-16 per use of a pool SOC, plan lines
  /// draw selections not drawn before.
  std::vector<Request> make_block() {
    util::Rng rng(seed_ ^ (0x9e3779b97f4a7c15ULL * (blocks_ + 1)));
    const std::size_t cold = block_size_ / 5;
    std::vector<Request> block(block_size_);
    std::vector<std::size_t> order(block_size_);
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.next_below(i)]);
    }
    for (std::size_t k = 0; k < block_size_; ++k) {
      Request& request = block[order[k]];
      if (k >= cold) {
        request.hot = static_cast<int>(rng.next_below(hot_lines().size()));
        request.line = hot_lines()[static_cast<std::size_t>(request.hot)];
        continue;
      }
      request.sampled = rng.next_below(16) == 0;
      Pool& pool = pool_[rng.next_below(pool_.size())];
      const std::string system = " system=synthetic:" +
                                 std::to_string(pool.soc->seed) + ":" +
                                 std::to_string(kPoolCores);
      if (rng.next_bool()) {
        std::vector<unsigned> selection;
        for (int attempt = 0; attempt < 64 && selection.empty(); ++attempt) {
          std::vector<unsigned> draw;
          for (unsigned versions : pool.soc->versions) {
            draw.push_back(static_cast<unsigned>(rng.next_below(versions)));
          }
          if (pool.plans.insert(draw).second) selection = std::move(draw);
        }
        if (!selection.empty()) {
          std::string spec;
          for (unsigned v : selection) {
            spec += (spec.empty() ? "" : ",") + std::to_string(v + 1);
          }
          request.line = "plan" + system + " selection=" + spec;
          continue;
        }
      }
      char w2[64];
      std::snprintf(w2, sizeof(w2), "%.17g",
                    1.0 + static_cast<double>(++pool.optimize_lines) / 65536.0);
      request.line = "optimize" + system + " w1=1 w2=" + w2;
    }
    return block;
  }

  void stop() {
    for (int fd : fds_) ::close(fd);
    fds_.clear();
    if (server_) {
      server_->request_drain();
      server_->wait();
      server_.reset();
    }
  }

  std::uint64_t seed_;
  std::size_t block_size_;
  std::vector<Pool> pool_;
  std::unique_ptr<service::Server> server_;
  std::vector<int> fds_;
  std::size_t blocks_ = 0;
  std::uint64_t hot_requests_ = 0;
  std::uint64_t cold_requests_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
  std::vector<double> hit_us_;
  std::vector<double> miss_ms_;
  std::map<std::size_t, std::set<std::string>> hot_seen_;
  std::vector<std::pair<std::string, std::string>> cold_sample_;
  std::vector<std::string> failed_;
  std::uint64_t block0_digest_ = service::kFnvOffsetBasis;
};

// ---------------------------------------------------------------------------
// Running one workload.

template <class W>
std::unique_ptr<Workload> make(std::uint64_t seed, bool smoke) {
  return std::make_unique<W>(seed, smoke);
}

struct WorkloadInfo {
  const char* name;
  std::uint64_t default_seed;
  std::unique_ptr<Workload> (*make)(std::uint64_t seed, bool smoke);
};

// Default seeds: 7 and 11 are the ATPG and sequence seeds of Tables 1 and 3.
constexpr WorkloadInfo kWorkloads[] = {
    {"core_atpg", 7, make<CoreAtpg>},
    {"chip_seqsim", 11, make<ChipSeqsim>},
    {"soc_optimize", 1, make<SocOptimize>},
    {"serve_mix", 1, make<ServeMix>},
};

/// Library counters read over the traced pass's round (set-up ones over
/// its set-up), as (metric, registry name).
const std::pair<const char*, const char*> kRoundCounters[] = {
    {"atpg.podem_calls", "atpg/podem_calls"},
    {"atpg.backtracks", "atpg/backtracks"},
    {"atpg.random_kept", "atpg/random_patterns_kept"},
    {"faultsim.good_gate_evals", "faultsim/good_gate_evals"},
    {"faultsim.cone_replays", "faultsim/cone_replays"},
    {"faultsim.pattern_blocks", "faultsim/pattern_blocks"},
    {"faultsim.faults_dropped", "faultsim/faults_dropped"},
    {"soc.plans", "soc/plans"},
    {"soc.ccg_relaxations", "ccg/relaxations"},
    {"soc.ccg_dijkstra_runs", "ccg/dijkstra_runs"},
    {"soc.ccg_reservation_conflicts", "ccg/reservation_conflicts"},
    {"soc.ccg_mux_fallbacks", "ccg/mux_fallbacks"},
    {"opt.iterations", "opt/iterations"},
    {"opt.moves_proposed", "opt/moves_proposed"},
    {"opt.moves_accepted", "opt/moves_accepted"},
};
const std::pair<const char*, const char*> kSetupCounters[] = {
    {"transparency.versions_built", "transparency/versions_built"},
    {"transparency.nodes_evaluated", "transparency/nodes_evaluated"},
};

std::map<std::string, double> counter_values() {
  std::map<std::string, double> values;
  for (const auto& c : obs::Registry::instance().snapshot().counters) {
    values[c.name] = static_cast<double>(c.value);
  }
  return values;
}

/// The recorded spans as a Chrome trace of complete ("X") events with
/// nanosecond timestamps.  obs::chrome_trace_json() prints timestamps to
/// six significant digits, so past the first second a short span's end
/// can print before its start, and `socet trace-analyze` rejects the file.
std::string chrome_trace() {
  const auto events = obs::collect_trace_events();
  const std::uint64_t epoch = events.empty() ? 0 : events.front().start_ns;
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const obs::TraceEvent& event = events[i];
    char times[64];
    std::snprintf(times, sizeof(times), "\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(event.start_ns - epoch) / 1e3,
                  static_cast<double>(event.end_ns - event.start_ns) / 1e3);
    out += std::string(i == 0 ? "" : ",") +
           "{\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(event.tid) +
           ",\"name\":\"" + obs::json_escape(event.name) + "\"," + times + "}";
  }
  return out + "]}";
}

/// Return freed heap to the system and restart the kernel's peak-RSS
/// count, so the peak reflects what the rounds hold, not what earlier
/// set-ups left fragmented.
void reset_peak_rss() {
  ::malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Peak resident memory since reset_peak_rss(), in MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      status >> kb;
      return kb / 1024.0;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0;
}

struct Options {
  std::string workload;
  std::optional<std::uint64_t> seed;
  double seconds = 10;
  std::string trace_path;
  bool smoke = false;
};

/// The lines of golden/<workload>.txt that start with `prefix`
/// (`seed=<n> `).
std::vector<std::string> golden_lines(const std::string& workload,
                                      const std::string& prefix) {
  std::ifstream in(std::string(SOCET_WORKLOAD_GOLDEN_DIR) + "/" + workload +
                   ".txt");
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) lines.push_back(line);
  }
  return lines;
}

class Printer {
 public:
  void row(const std::string& name, double value, const std::string& unit) {
    std::printf("%-36s %s %s\n", name.c_str(), number(value).c_str(),
                unit.c_str());
    if (!json_.empty()) json_ += ",";
    json_ += "\"" + name + "\":{\"value\":" + number(value) + ",\"unit\":\"" +
             unit + "\"}";
  }
  [[nodiscard]] const std::string& json() const { return json_; }

 private:
  std::string json_;
};

int run_workload(const WorkloadInfo& info, const Options& options) {
  const std::uint64_t seed = options.seed.value_or(info.default_seed);
  const bool smoke = options.smoke;
  // Set-up is repeated at least 3 times and until it has taken 1 s in all,
  // and reported as the median: single set-ups of a few milliseconds vary
  // by half from one process to the next, so the short ones need many.
  constexpr std::size_t kSetupMinRuns = 3;
  constexpr double kSetupBudgetS = 1.0;

  // The last instance set up is the one measured.
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_s;
  std::map<std::string, std::vector<double>> setup_layers;
  double setup_total_s = 0;
  while (setup_s.empty() ||
         (!smoke &&
          (setup_s.size() < kSetupMinRuns || setup_total_s < kSetupBudgetS))) {
    workload.reset();
    workload = info.make(seed, smoke);
    Layers layers;
    const auto start = Clock::now();
    workload->setup(layers);
    setup_s.push_back(ms_since(start) / 1000.0);
    setup_total_s += setup_s.back();
    for (const auto& [name, ms] : layers) setup_layers[name].push_back(ms);
  }

  // Timed phase: whole rounds, as many as fit in --seconds (at least one).
  reset_peak_rss();
  Pass pass;
  std::vector<double> round_s;
  double elapsed_s = 0;
  do {
    const auto round_start = Clock::now();
    workload->round(pass);
    round_s.push_back(ms_since(round_start) / 1000.0);
    elapsed_s += round_s.back();
  } while (!smoke && elapsed_s + median(round_s) <= options.seconds);
  const auto& op_ms = pass.op_ms;
  Layers& layers = pass.layers;
  const double rss = peak_rss_mb();

  Results results;
  results.prefix = "seed=" + std::to_string(seed) + " ";
  workload->verify(results);
  workload.reset();

  const double rounds = static_cast<double>(round_s.size());
  Printer out;
  out.row("setup_s", median(setup_s), "s");
  out.row("wall_s", median(round_s), "s");
  out.row("p50_ms", median(op_ms), "ms");
  out.row("peak_rss_mb", rss, "MB");
  out.row("setup_runs", static_cast<double>(setup_s.size()), "count");
  out.row("rounds", rounds, "count");
  out.row("operations", static_cast<double>(op_ms.size()), "count");
  for (const auto& [name, ms] : setup_layers) out.row(name, median(ms), "ms");
  for (const auto& [name, ms] : layers) out.row(name, ms / rounds, "ms");
  std::map<std::string, double> derived;
  for (const auto& metric : results.metrics) {
    out.row(metric.name, metric.value, metric.unit);
    derived[metric.name] = metric.value;
  }
  if (layers.count("faultsim.seq_ms") != 0 &&
      derived["faultsim.seq_gate_evals"] > 0) {
    out.row("faultsim.seq_ns_per_gate_eval",
            layers["faultsim.seq_ms"] / rounds * 1e6 /
                derived["faultsim.seq_gate_evals"],
            "ns");
  }
  if (derived.count("service.hit_p50_us") != 0) {
    double total_s = 0;
    for (double s : round_s) total_s += s;
    out.row("service.jobs_per_s", static_cast<double>(op_ms.size()) / total_s,
            "1/s");
  }

  // Traced pass: a fresh set-up and one round with the library's metrics
  // on, spans on for the set-up and the first kTracedOps operations.
  if (!options.trace_path.empty()) {
    constexpr std::size_t kTracedOps = 64;
    obs::set_metrics_enabled(true);
    obs::set_trace_enabled(true);
    auto traced = info.make(seed, smoke);
    const auto before_setup = counter_values();
    Layers ignored;
    traced->setup(ignored);
    const auto before_round = counter_values();
    Pass traced_pass;
    traced_pass.traced_ops_left = kTracedOps;
    traced->round(traced_pass);
    const auto after = counter_values();
    traced.reset();  // joins any worker threads before the export
    obs::set_trace_enabled(false);
    obs::set_metrics_enabled(false);
    auto delta = [](const std::map<std::string, double>& a,
                    const std::map<std::string, double>& b,
                    const char* name) {
      const auto ia = a.find(name);
      const auto ib = b.find(name);
      return (ib == b.end() ? 0.0 : ib->second) -
             (ia == a.end() ? 0.0 : ia->second);
    };
    for (const auto& [metric, name] : kSetupCounters) {
      out.row(metric, delta(before_setup, before_round, name), "count");
    }
    for (const auto& [metric, name] : kRoundCounters) {
      derived[metric] = delta(before_round, after, name);
      out.row(metric, derived[metric], "count");
    }
    if (derived["atpg.podem_calls"] > 0) {
      out.row("atpg.podem_yield",
              (derived["atpg.test_vectors"] - derived["atpg.random_kept"]) /
                  derived["atpg.podem_calls"],
              "ratio");
    }
    if (derived["opt.moves_proposed"] > 0) {
      out.row("opt.accept_ratio",
              derived["opt.moves_accepted"] / derived["opt.moves_proposed"],
              "ratio");
    }
    std::ofstream trace(options.trace_path);
    trace << chrome_trace();
    if (!trace) {
      std::fprintf(stderr, "cannot write %s\n", options.trace_path.c_str());
      return 2;
    }
  }

  std::vector<std::string> failures = results.failures;
  for (const std::string& line : results.exact_lines) {
    std::printf("exact %s\n", line.c_str());
  }
  if (!smoke) {
    const auto golden = golden_lines(
        info.name, "seed=" + std::to_string(seed) + " ");
    if (golden.empty()) {
      std::printf("golden: no entry for seed %llu\n",
                  static_cast<unsigned long long>(seed));
    } else if (golden != results.exact_lines) {
      for (const std::string& line : golden) {
        const auto& got = results.exact_lines;
        if (std::find(got.begin(), got.end(), line) == got.end()) {
          failures.push_back("golden line not reproduced: " + line);
        }
      }
      if (failures.size() == results.failures.size()) {
        failures.push_back("golden lines differ in number or order");
      }
    } else {
      std::printf("golden: %zu lines match\n", golden.size());
    }
  }
  for (const std::string& failure : failures) {
    std::printf("FAIL %s\n", failure.c_str());
  }
  const bool correct = failures.empty();
  std::printf(
      "{\"workload\":\"%s\",\"seed\":%llu,\"correct\":%s,\"attempted\":%zu,"
      "\"failed\":%zu,\"metrics\":{%s}}\n",
      info.name, static_cast<unsigned long long>(seed),
      correct ? "true" : "false", op_ms.size(), failures.size(),
      out.json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: socet_workload --workload "
               "core_atpg|chip_seqsim|soc_optimize|serve_mix\n"
               "                      [--seed N] [--seconds S] [--trace FILE] "
               "[--smoke]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Client and daemon share this process: a write to a socket the other
  // side closed must fail with EPIPE, not end the run.
  std::signal(SIGPIPE, SIG_IGN);
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      const std::string text = argv[++i];
      std::uint64_t seed = 0;
      const auto [ptr, ec] =
          std::from_chars(text.data(), text.data() + text.size(), seed);
      if (ec != std::errc() || ptr != text.data() + text.size()) {
        return usage();
      }
      options.seed = seed;
    } else if (arg == "--seconds" && has_value) {
      char* end = nullptr;
      options.seconds = std::strtod(argv[++i], &end);
      if (*end != '\0' || !(options.seconds >= 0)) return usage();
    } else if (arg == "--trace" && has_value) {
      options.trace_path = argv[++i];
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else {
      return usage();
    }
  }
  try {
    if (options.workload.empty()) {
      if (!options.smoke) return usage();
      int status = 0;
      for (const WorkloadInfo& info : kWorkloads) {
        std::printf("== %s\n", info.name);
        status = std::max(status, run_workload(info, options));
      }
      return status;
    }
    for (const WorkloadInfo& info : kWorkloads) {
      if (options.workload == info.name) return run_workload(info, options);
    }
    return usage();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "socet_workload: %s\n", error.what());
    return 2;
  }
}
