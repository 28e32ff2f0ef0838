#include "socet/service/service.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <map>

#include "socet/obs/journal.hpp"
#include "socet/obs/metrics.hpp"
#include "socet/obs/trace.hpp"
#include "socet/opt/optimize.hpp"
#include "socet/service/queue.hpp"
#include "socet/soc/parallel.hpp"
#include "socet/soc/testprogram.hpp"
#include "socet/soc/validate.hpp"
#include "socet/systems/synthetic.hpp"
#include "socet/systems/systems.hpp"
#include "socet/util/error.hpp"
#include "socet/util/table.hpp"

namespace socet::service {

namespace {

using Clock = std::chrono::steady_clock;

double microseconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Bounds that keep one job line from holding a worker for minutes.
/// `explore` enumerates every point of the version lattice (3^11 points
/// took about 25 s on a 4-vCPU host), and a synthetic SOC's planning
/// cost grows with its core count.  The paper systems' lattices have 27
/// points, and 64 cores is the largest SOC the benchmark notes probe.
constexpr unsigned kMaxSyntheticCores = 64;
constexpr unsigned long long kMaxExplorePoints = 65536;

/// Resolve a job's system name.  Besides the paper's two systems, the
/// service accepts `synthetic:<seed>[:<cores>]` so load generators can
/// request arbitrarily many distinct, deterministic SOCs.
systems::System resolve_system(const std::string& name) {
  if (name == "barcode" || name == "system1") {
    return systems::make_barcode_system();
  }
  if (name == "system2") return systems::make_system2();
  if (name.rfind("synthetic:", 0) == 0) {
    const std::string spec = name.substr(10);
    const auto colon = spec.find(':');
    const std::string seed_text = spec.substr(0, colon);
    std::uint64_t seed = 0;
    auto [ptr, ec] = std::from_chars(
        seed_text.data(), seed_text.data() + seed_text.size(), seed);
    util::require(ec == std::errc() &&
                      ptr == seed_text.data() + seed_text.size(),
                  "bad synthetic seed in system '" + name + "'");
    systems::SyntheticSocOptions options;
    if (colon != std::string::npos) {
      const std::string cores_text = spec.substr(colon + 1);
      unsigned cores = 0;
      auto [cptr, cec] = std::from_chars(
          cores_text.data(), cores_text.data() + cores_text.size(), cores);
      util::require(cec == std::errc() && cores >= 1 &&
                        cores <= kMaxSyntheticCores &&
                        cptr == cores_text.data() + cores_text.size(),
                    "bad synthetic core count in system '" + name +
                        "' (want 1.." + std::to_string(kMaxSyntheticCores) +
                        ")");
      options.cores = cores;
    }
    return systems::make_synthetic_system(seed, options);
  }
  util::raise("unknown system '" + name +
              "' (use barcode|system2|synthetic:<seed>[:<cores>])");
}

/// Per-worker system table: each thread materializes the systems its jobs
/// name exactly once, and no System is ever shared across threads.
class SystemTable {
 public:
  const systems::System& get(const std::string& name) {
    auto it = systems_.find(name);
    if (it == systems_.end()) {
      it = systems_.emplace(name, resolve_system(name)).first;
    }
    return it->second;
  }

 private:
  std::map<std::string, systems::System> systems_;
};

soc::PlanOptions plan_options_for(const Job& job) {
  soc::PlanOptions options;
  options.allow_pipelining = job.pipelined;
  return options;
}

std::string format_selection(const std::vector<unsigned>& selection) {
  std::string text;
  for (unsigned v : selection) {
    if (!text.empty()) text += '/';
    text += std::to_string(v + 1);
  }
  return text;
}

/// Pad the job's selection to one version index per core and range-check
/// it against the system's menus.
std::vector<unsigned> full_selection(const systems::System& system,
                                     const Job& job) {
  const std::size_t cores = system.soc->cores().size();
  util::require(job.selection.size() <= cores,
                "selection has " + std::to_string(job.selection.size()) +
                    " entries but system '" + job.system + "' has " +
                    std::to_string(cores) + " cores");
  std::vector<unsigned> selection(cores, 0);
  for (std::size_t c = 0; c < job.selection.size(); ++c) {
    selection[c] = job.selection[c];
    util::require(
        selection[c] <
            system.soc->core(static_cast<std::uint32_t>(c)).version_count(),
        "selection out of range for core " + std::to_string(c + 1));
  }
  return selection;
}

PlanCache::Entry execute_job(const Job& job, SystemTable& systems) {
  const systems::System& system = systems.get(job.system);
  PlanCache::Entry entry;
  switch (job.verb) {
    case Verb::kPlan: {
      const auto selection = full_selection(system, job);
      const auto options = plan_options_for(job);
      const auto plan = soc::plan_chip_test(*system.soc, selection, options);
      const auto violations =
          soc::validate_plan(*system.soc, selection, plan, options);
      entry.payload = "sel=" + format_selection(selection) +
                      " tat=" + std::to_string(plan.total_tat) +
                      " overhead=" +
                      std::to_string(plan.total_overhead_cells()) +
                      " violations=" + std::to_string(violations.size());
      break;
    }
    case Verb::kOptimize: {
      opt::DesignPoint point;
      switch (job.objective) {
        case Job::Objective::kAreaBudget:
          point = opt::minimize_tat(*system.soc, job.area_budget);
          break;
        case Job::Objective::kTatBudget:
          point = opt::minimize_area(*system.soc, job.tat_budget);
          break;
        case Job::Objective::kWeighted:
          point = opt::minimize_weighted(*system.soc, job.w1, job.w2);
          break;
        case Job::Objective::kNone:
          util::raise("optimize job has no objective");
      }
      entry.payload = "sel=" + format_selection(point.selection) +
                      " tat=" + std::to_string(point.tat) +
                      " overhead=" + std::to_string(point.overhead_cells) +
                      " constraint=" +
                      (point.met_constraint ? "met" : "missed");
      break;
    }
    case Verb::kExplore: {
      // Refuse before enumerating.  The running product is checked per
      // core, so it cannot overflow.
      unsigned long long lattice = 1;
      for (const core::Core* core : system.soc->cores()) {
        lattice *= core->version_count();
        if (lattice > kMaxExplorePoints) {
          util::raise("explore of system '" + job.system +
                      "' spans more than the " +
                      std::to_string(kMaxExplorePoints) + "-point limit");
        }
      }
      const auto points = opt::enumerate_design_space(*system.soc);
      const auto front = opt::pareto_front(points);
      unsigned long long best_tat = 0;
      unsigned min_area = 0;
      for (const auto& point : points) {
        if (&point == &points.front() || point.tat < best_tat) {
          best_tat = point.tat;
        }
        if (&point == &points.front() || point.overhead_cells < min_area) {
          min_area = point.overhead_cells;
        }
      }
      entry.payload = "points=" + std::to_string(points.size()) +
                      " pareto=" + std::to_string(front.size()) +
                      " best_tat=" + std::to_string(best_tat) +
                      " min_area=" + std::to_string(min_area);
      break;
    }
    case Verb::kParallel: {
      const auto selection = full_selection(system, job);
      const auto plan = soc::plan_chip_test(*system.soc, selection);
      const auto schedule =
          soc::schedule_parallel(*system.soc, selection, plan);
      char speedup[32];
      std::snprintf(speedup, sizeof(speedup), "%.2f", schedule.speedup());
      entry.payload = "sel=" + format_selection(selection) +
                      " sessions=" + std::to_string(schedule.sessions.size()) +
                      " sequential=" + std::to_string(schedule.sequential_tat) +
                      " parallel=" + std::to_string(schedule.total_tat) +
                      " speedup=" + speedup;
      break;
    }
    case Verb::kProgram: {
      const auto selection = full_selection(system, job);
      const auto plan = soc::plan_chip_test(*system.soc, selection);
      const auto program =
          soc::assemble_test_program(*system.soc, selection, plan);
      std::size_t events = 0;
      for (const auto& core : program.cores) events += core.frame.size();
      entry.payload = "sel=" + format_selection(selection) +
                      " cores=" + std::to_string(program.cores.size()) +
                      " frame_events=" + std::to_string(events) +
                      " cycles=" + std::to_string(program.total_cycles);
      break;
    }
  }
  return entry;
}

CacheStats stats_delta(const CacheStats& before, const CacheStats& after) {
  return {after.hits - before.hits, after.misses - before.misses,
          after.insertions - before.insertions,
          after.evictions - before.evictions,
          after.evicted_bytes - before.evicted_bytes};
}

}  // namespace

std::uint64_t job_key(const Job& job) {
  const std::uint64_t canonical = fnv1a(canonical_job_line(job));
  return fnv1a(soc::plan_options_key(plan_options_for(job)), canonical);
}

struct Executor::Systems : SystemTable {};

Executor::Executor(PlanCache& cache)
    : cache_(cache), systems_(std::make_unique<Systems>()) {}

Executor::~Executor() = default;

JobResult Executor::run_line(const std::string& line, std::uint64_t ordinal) {
  JobResult result;
  Job job;
  try {
    job = parse_job_line(line);
  } catch (const std::exception& error) {
    result.record = std::string("error ") + error.what();
    SOCET_EVENT("service/job", {"job", ordinal},
                {"outcome", "parse_error"}, {"error", error.what()});
    return result;
  }
  result.key = job_key(job);
  try {
    PlanCache::Entry entry;
    if (auto cached = cache_.lookup(result.key)) {
      entry = std::move(*cached);
      result.cache_hit = true;
    } else {
      entry = execute_job(job, *systems_);
      cache_.insert(result.key, entry);
    }
    char key_hex[20];
    std::snprintf(key_hex, sizeof(key_hex), "%016llx",
                  static_cast<unsigned long long>(result.key));
    SOCET_EVENT("service/job", {"job", ordinal},
                {"verb", verb_name(job.verb)}, {"system", job.system},
                {"cache", result.cache_hit ? "hit" : "miss"},
                {"key", key_hex});
    result.ok = true;
    result.record =
        std::string("ok ") + verb_name(job.verb) + " " + entry.payload;
  } catch (const std::exception& error) {
    result.record = std::string("error ") + error.what();
    SOCET_EVENT("service/job", {"job", ordinal},
                {"verb", verb_name(job.verb)}, {"system", job.system},
                {"outcome", "error"}, {"error", error.what()});
  }
  return result;
}

PlanningService::PlanningService(ServiceOptions options)
    : options_(options), cache_(options.cache_capacity, options.cache_bytes) {
  util::require(options_.threads >= 1, "service needs at least one thread");
}

BatchReport PlanningService::run(const std::vector<Job>& jobs) {
  std::vector<std::string> lines;
  lines.reserve(jobs.size());
  for (const Job& job : jobs) lines.push_back(canonical_job_line(job));
  return run_lines(lines);
}

BatchReport PlanningService::run_lines(const std::vector<std::string>& lines) {
  SOCET_SPAN("service/batch");
  std::vector<std::string> batch;
  for (const std::string& line : lines) {
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    batch.push_back(line);
  }

  BatchReport report;
  report.results.resize(batch.size());
  const CacheStats before = cache_.stats();
  const auto batch_start = Clock::now();

  struct Item {
    std::size_t index = 0;
    Clock::time_point enqueued;
  };
  WorkQueue<Item> queue;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    queue.push({i, batch_start});
  }
  queue.close();
  SOCET_GAUGE_MAX("service/queue_depth", queue.size());

  const auto worker = [&] {
    Executor executor(cache_);
    while (auto item = queue.pop()) {
      SOCET_SPAN("service/job");
      const std::size_t i = item->index;
      const auto start = Clock::now();
      // Correlate every decision event recorded while this job runs
      // (routes, optimizer moves, ...) with the job's batch index.
      obs::JournalScope journal_scope("job-" + std::to_string(i + 1));
      JobResult result = executor.run_line(batch[i], i + 1);
      result.index = i;
      result.queue_us = microseconds_between(item->enqueued, start);
      result.record = "job " + std::to_string(i + 1) + " " + result.record;
      result.wall_us = microseconds_between(start, Clock::now());
      report.results[i] = std::move(result);
    }
  };

  const unsigned workers = static_cast<unsigned>(std::min<std::size_t>(
      options_.threads, std::max<std::size_t>(batch.size(), 1)));
  util::run_on_workers(workers, [&worker, workers](unsigned t) {
    // Inline single-thread runs keep the caller's thread name.
    if (workers > 1) {
      obs::name_this_thread("worker-" + std::to_string(t + 1));
    }
    worker();
  });

  report.wall_ms =
      microseconds_between(batch_start, Clock::now()) / 1000.0;
  report.cache = stats_delta(before, cache_.stats());
  for (const JobResult& result : report.results) {
    if (!result.ok) ++report.errors;
    if (result.cache_hit) SOCET_COUNT("service/cache_hits");
    SOCET_HISTOGRAM("service/queue_us", result.queue_us);
    SOCET_HISTOGRAM("service/wall_us", result.wall_us);
  }
  SOCET_COUNT_N("service/jobs", report.results.size());
  SOCET_COUNT_N("service/errors", report.errors);
  SOCET_COUNT_N("service/cache_misses", report.cache.misses);
  return report;
}

std::string BatchReport::records_text() const {
  std::string text;
  for (const JobResult& result : results) text += result.record + "\n";
  return text;
}

std::string BatchReport::summary_table() const {
  double queue_us = 0;
  double wall_us = 0;
  obs::Histogram queue_hist;
  obs::Histogram wall_hist;
  for (const JobResult& result : results) {
    queue_us += result.queue_us;
    wall_us += result.wall_us;
    queue_hist.record(static_cast<std::uint64_t>(result.queue_us));
    wall_hist.record(static_cast<std::uint64_t>(result.wall_us));
  }
  const double jobs = results.empty() ? 1.0 : static_cast<double>(results.size());
  util::Table table({"counter", "value"});
  table.add_row({"jobs run", std::to_string(results.size())});
  table.add_row({"errors", std::to_string(errors)});
  table.add_row({"cache hits", std::to_string(cache.hits)});
  table.add_row({"cache misses", std::to_string(cache.misses)});
  table.add_row({"cache hit-rate", util::Table::num(cache.hit_rate() * 100.0) + "%"});
  table.add_row({"mean queue time", util::Table::num(queue_us / jobs) + " us"});
  table.add_row({"p50 queue time", util::Table::num(queue_hist.quantile(0.5)) + " us"});
  table.add_row({"p95 queue time", util::Table::num(queue_hist.quantile(0.95)) + " us"});
  table.add_row({"max queue time", std::to_string(queue_hist.max()) + " us"});
  table.add_row({"mean job wall time", util::Table::num(wall_us / jobs) + " us"});
  table.add_row({"p50 job wall time", util::Table::num(wall_hist.quantile(0.5)) + " us"});
  table.add_row({"p95 job wall time", util::Table::num(wall_hist.quantile(0.95)) + " us"});
  table.add_row({"max job wall time", std::to_string(wall_hist.max()) + " us"});
  table.add_row({"batch wall time", util::Table::num(wall_ms, 2) + " ms"});
  return table.to_text();
}

}  // namespace socet::service
