// qp_perfbench: the single-process, closed-loop planner benchmark program.
//
// One client sends a fixed, seeded list of jobs to the planner's public
// functions (net, core, lp, sim, common) and waits for each result before
// sending the next. Each workload is built so a different layer does most
// of the work:
//
//   plan-161    Grid 7x7 start -> load-aware Delta local search -> capped
//               strategy LP (revised simplex) on 161-site scenarios;
//   replan-161  the §4.2 iterative placement (many-to-one + warm LP);
//   storm-500   fault schedule + queueing engine under a crash storm on a
//               plan built in set-up.
//
// Scenario generation and precomputed plans happen in set-up, which is
// repeated before the first job and timed on its own. Every job's output
// is checked; a job that throws or fails a check counts as failed. The
// program writes one JSON document to stdout (per-job times, layer times,
// exact-count ledger, spans); perfbench/run.py turns it into the
// benchmark's metrics.
//
// Usage: qp_perfbench --workload W --seed N --seconds S --trace 0|1
//                     --out-dir DIR
// With --trace 1 the program runs an untraced half (the overhead baseline)
// and then a traced half with obs metrics on and the Chrome trace written
// to DIR/trace-<workload>.json.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/iterative.hpp"
#include "core/local_search.hpp"
#include "core/objective.hpp"
#include "core/placement.hpp"
#include "core/response.hpp"
#include "core/strategy.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "quorum/grid.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/scenario.hpp"

namespace {

using namespace qp;
using Clock = std::chrono::steady_clock;

/// Worker threads (caller included) of every call that fans out.
constexpr std::size_t kWorkers = 2;
/// Set-up runs at least kSetupMinRepeats times, and then until kSetupSeconds
/// of set-up or kSetupMaxRepeats repetitions, all before the first job;
/// run.py reports the median. Only one instance is alive at a time, so
/// peak_rss_mb sees one set-up.
constexpr std::size_t kSetupMinRepeats = 3;
constexpr std::size_t kSetupMaxRepeats = 15;
constexpr double kSetupSeconds = 1.0;
/// Topologies are fixed datasets, like the paper's; the workload seed picks
/// the jobs on them (anchors, starts, fault schedules, engine streams), so
/// runs with different seeds measure the same system on different jobs.
constexpr std::uint64_t kTopologySeed = 20070601;

std::uint64_t now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now().time_since_epoch())
          .count());
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Seed of input `index` of stream `tag`, derived from the workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag, std::uint64_t index) {
  std::uint64_t state = seed ^ (tag * 0x9E3779B97F4A7C15ULL) ^ (index * 0xD1B54A32D192ED03ULL);
  (void)common::splitmix64(state);
  return common::splitmix64(state);
}

std::string exact(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void check(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error("check failed: " + what);
}

std::uint64_t placement_hash(const core::Placement& placement) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t site : placement.site_of) {
    h ^= static_cast<std::uint64_t>(site) + 0x9E3779B97F4A7C15ULL;
    h *= 0x100000001b3ULL;
  }
  return h;
}

void check_one_to_one(const core::Placement& placement, std::size_t sites,
                      std::size_t universe) {
  check(placement.universe_size() == universe, "placement covers the universe");
  placement.validate(sites);
  check(placement.one_to_one(), "placement is one-to-one");
}

/// The search objective is no worse than its start and matches a fresh
/// evaluation of the returned placement.
void check_search(double start, double returned, double fresh) {
  const std::string values =
      " (start " + exact(start) + ", returned " + exact(returned) + ", fresh " + exact(fresh) + ")";
  check(std::isfinite(returned), "search objective is finite" + values);
  check(returned <= start + 1e-9, "search objective <= start objective" + values);
  check(std::abs(returned - fresh) <= 1e-9 * std::max(1.0, std::abs(fresh)),
        "search objective equals a fresh evaluation" + values);
}

// --- Spans -----------------------------------------------------------------

/// In-memory span log of the benchmark's own layer calls: name, start, end,
/// parent and job id; written out with the result.
class SpanLog {
 public:
  struct Span {
    const char* name;
    std::uint64_t t0_us;
    std::uint64_t t1_us;
    long parent;
    long job;
  };

  long open(const char* name, long job) {
    spans_.push_back({name, now_us(), 0, open_.empty() ? -1 : open_.back(), job});
    open_.push_back(static_cast<long>(spans_.size()) - 1);
    return open_.back();
  }
  /// Closes span `id` and returns its duration in milliseconds.
  double close(long id) {
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.t1_us = now_us();
    open_.pop_back();
    return static_cast<double>(span.t1_us - span.t0_us) / 1000.0;
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<long> open_;
};

/// What one job hands back to the closed loop.
struct JobOutput {
  /// Bench-timed layer calls, ms (keys are per-layer metric names).
  std::map<std::string, double> layer_ms;
  /// Exact values that must repeat bit for bit for the same spec.
  std::vector<std::pair<std::string, std::string>> ledger;
  /// Exact counts reported as per-layer metrics (summed per pass).
  std::map<std::string, double> counts;
  /// The analytic (or simulated) response of the produced plan, ms.
  double plan_ms = 0.0;
};

/// Times one layer call as a span of the current job.
template <typename F>
auto timed(SpanLog& log, long job, const char* name, JobOutput& out, F&& call) {
  const long id = log.open(name, job);
  struct Closer {
    SpanLog& log;
    long id;
    JobOutput& out;
    const char* name;
    ~Closer() { out.layer_ms[name] += log.close(id); }
  } closer{log, id, out, name};
  return call();
}

// --- Workloads -----------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  /// Job specs 0, 1, 2, ... are derived from the seed on demand; the
  /// first core_specs() of them always run, so sums and means over them
  /// (plan_response_ms, the exact-count metrics) are deterministic.
  [[nodiscard]] virtual std::size_t core_specs() const = 0;
  /// Runs job spec `spec`; the layer calls inside are timed as spans.
  virtual JobOutput run(std::size_t spec, SpanLog& log, long job) = 0;
  /// Heavy output checks, run outside the job's timed interval. Throws on
  /// a failed check.
  virtual void verify(std::size_t spec, JobOutput& out) = 0;
  /// Set-up layer times of this instance (net.scenario_ms, ...).
  std::map<std::string, double> setup_ms;
};

struct SetupTimer {
  std::map<std::string, double>& into;
  const char* name;
  Clock::time_point t0 = Clock::now();
  ~SetupTimer() { into[name] += ms_since(t0); }
};

/// Sites by ascending total RTT to all others (most central first).
std::vector<std::size_t> central_sites(const net::LatencyMatrix& matrix) {
  std::vector<double> total(matrix.size(), 0.0);
  for (std::size_t v = 0; v < matrix.size(); ++v) {
    for (std::size_t w = 0; w < matrix.size(); ++w) total[v] += matrix.rtt(v, w);
  }
  std::vector<std::size_t> order(matrix.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&total](std::size_t a, std::size_t b) { return total[a] < total[b]; });
  return order;
}

// plan-161: the paper's core request at its topology size.
class Plan161 final : public Workload {
 public:
  static constexpr std::size_t kScenarios = 8;
  static constexpr std::size_t kCoreSpecs = 80;
  static constexpr std::size_t kPeriphery = 40;

  explicit Plan161(std::uint64_t seed) : seed_(seed) {
    {
      SetupTimer timer{setup_ms, "net.scenario_ms"};
      for (std::size_t i = 0; i < kScenarios; ++i) {
        sim::ScenarioConfig config;
        config.name = "plan161";
        config.site_count = 161;
        config.seed = derive_seed(kTopologySeed, 1, i);
        scenarios_.push_back(sim::make_scenario(config));
      }
    }
    for (const sim::Scenario& s : scenarios_) {
      objectives_.push_back(s.load_objective());
      weights_.push_back(core::demand_shares(s.client_demand, s.site_count()));
      periphery_.push_back(central_sites(s.matrix));
      periphery_.back().erase(periphery_.back().begin(),
                              periphery_.back().end() - static_cast<long>(kPeriphery));
    }
    caps_.assign(161, 1.1 * grid_.optimal_load());
  }

  [[nodiscard]] std::size_t core_specs() const override { return kCoreSpecs; }

  JobOutput run(std::size_t spec, SpanLog& log, long job) override {
    const std::size_t s = scenario_of(spec);
    const net::LatencyMatrix& matrix = scenarios_[s].matrix;
    JobOutput out;
    Result r;
    r.start = timed(log, job, "core.placement_ms", out, [&] {
      return core::grid_placement_for_client(matrix, 7, anchor(s, spec));
    });
    core::LocalSearchOptions options;
    options.max_rounds = 20;
    options.objective = &objectives_[s];
    options.threads = kWorkers;
    r.search = timed(log, job, "core.search_ms", out, [&] {
      return core::local_search_placement(matrix, grid_, r.start, options);
    });
    r.lp = timed(log, job, "core.strategy_lp_ms", out, [&] {
      return core::optimize_access_strategy(matrix, grid_, r.search.placement, caps_,
                                            weights_[s]);
    });
    out.ledger = {{"search_moves", std::to_string(r.search.moves)},
                  {"search_objective", exact(r.search.objective)},
                  {"placement", std::to_string(placement_hash(r.search.placement))},
                  {"lp_status", std::to_string(static_cast<int>(r.lp.status))},
                  {"lp_iterations", std::to_string(r.lp.lp_iterations)},
                  {"lp_delay", exact(r.lp.avg_network_delay)}};
    out.counts = {{"core.search_moves", static_cast<double>(r.search.moves)}};
    result_ = std::move(r);
    return out;
  }

  void verify(std::size_t spec, JobOutput& out) override {
    const std::size_t s = scenario_of(spec);
    const sim::Scenario& scenario = scenarios_[s];
    const net::LatencyMatrix& matrix = scenario.matrix;
    const core::Objective& objective = objectives_[s];
    check_one_to_one(result_.start, 161, grid_.universe_size());
    check_one_to_one(result_.search.placement, 161, grid_.universe_size());
    check_search(objective.evaluate(matrix, grid_, result_.start), result_.search.objective,
                 objective.evaluate(matrix, grid_, result_.search.placement));
    check(result_.lp.status == lp::SolveStatus::Optimal, "strategy LP is optimal");
    result_.lp.strategy.validate(161, grid_.universe_size());
    const std::vector<double> loads = core::site_loads_explicit(
        result_.lp.strategy, result_.search.placement, 161, weights_[s]);
    for (std::size_t w = 0; w < loads.size(); ++w) {
      check(loads[w] <= caps_[w] + 1e-6, "weighted site load within its cap");
    }
    out.plan_ms = core::evaluate_explicit(matrix, grid_, result_.search.placement,
                                          scenario.alpha(), result_.lp.strategy,
                                          scenario.client_demand)
                      .avg_response_ms;
    out.ledger.emplace_back("plan_response", exact(out.plan_ms));
  }

 private:
  struct Result {
    core::Placement start;
    core::LocalSearchResult search;
    core::StrategyLpResult lp;
  };
  /// Round robin, so every run sees the same scenario mix.
  [[nodiscard]] static std::size_t scenario_of(std::size_t spec) { return spec % kScenarios; }

  /// A job-specific anchor among the scenario's least central sites: a
  /// start far from the optimum, so the search runs most of its rounds.
  [[nodiscard]] std::size_t anchor(std::size_t scenario, std::size_t spec) const {
    return periphery_[scenario][derive_seed(seed_, 2, spec) % kPeriphery];
  }

  std::uint64_t seed_;
  quorum::GridQuorum grid_{7};
  std::vector<sim::Scenario> scenarios_;
  std::vector<core::LoadAwareObjective> objectives_;
  std::vector<std::vector<double>> weights_;
  std::vector<std::vector<std::size_t>> periphery_;
  std::vector<double> caps_;
  Result result_;
};

// replan-161: the §4.2 iterative placement (many-to-one + warm LP).
class Replan161 final : public Workload {
 public:
  static constexpr std::size_t kScenarios = 8;
  static constexpr std::size_t kCoreSpecs = 12;
  static constexpr std::size_t kCentral = 16;

  explicit Replan161(std::uint64_t seed) : seed_(seed) {
    {
      SetupTimer timer{setup_ms, "net.scenario_ms"};
      for (std::size_t i = 0; i < kScenarios; ++i) {
        sim::ScenarioConfig config;
        config.name = "replan161";
        config.site_count = 161;
        config.seed = derive_seed(kTopologySeed, 3, i);
        scenarios_.push_back(sim::make_scenario(config));
      }
    }
    for (const sim::Scenario& s : scenarios_) {
      objectives_.push_back(s.load_objective());
      central_.push_back(central_sites(s.matrix));
    }
    caps_.assign(161, 1.5 * grid_.optimal_load());
  }

  [[nodiscard]] std::size_t core_specs() const override { return kCoreSpecs; }

  JobOutput run(std::size_t spec, SpanLog& log, long job) override {
    const std::size_t s = spec % kScenarios;  // Same scenario mix in every run.
    JobOutput out;
    // Two distinct anchors among the scenario's most central sites.
    common::Rng rng{derive_seed(seed_, 4, spec)};
    const std::vector<std::size_t> pick = rng.sample_without_replacement(kCentral, 2);
    core::IterativeOptions options;
    options.anchor_candidates = {central_[s][pick[0]], central_[s][pick[1]]};
    result_ = timed(log, job, "core.iterative_ms", out, [&] {
      return core::iterative_placement(scenarios_[s].matrix, grid_, caps_, objectives_[s],
                                       options);
    });
    std::size_t lp_iterations = 0;
    std::size_t warm = 0;
    for (const core::IterationRecord& record : result_.history) {
      lp_iterations += record.lp_iterations;
      warm += record.lp_warm_started ? 1 : 0;
    }
    out.ledger = {{"rounds", std::to_string(result_.history.size())},
                  {"lp_iterations", std::to_string(lp_iterations)},
                  {"warm_starts", std::to_string(warm)},
                  {"placement", std::to_string(placement_hash(result_.placement))},
                  {"avg_response", exact(result_.avg_response)}};
    out.counts = {{"core.iterative_rounds", static_cast<double>(result_.history.size())},
                  {"core.iterative_lp_iterations", static_cast<double>(lp_iterations)}};
    out.plan_ms = result_.avg_response;
    return out;
  }

  void verify(std::size_t, JobOutput&) override {
    check(!result_.history.empty(), "iterative ran at least one round");
    result_.placement.validate(161);
    check(result_.placement.universe_size() == grid_.universe_size(),
          "placement covers the universe");
    result_.strategy.validate(161, grid_.universe_size());
    check(std::isfinite(result_.avg_response) && result_.avg_response > 0.0,
          "iterative response is finite and positive");
    check(result_.avg_response <= result_.history.front().response_after_strategy + 1e-9,
          "iterative response <= its first round");
  }

 private:
  std::uint64_t seed_;
  quorum::GridQuorum grid_{5};
  std::vector<sim::Scenario> scenarios_;
  std::vector<core::LoadAwareObjective> objectives_;
  std::vector<std::vector<std::size_t>> central_;
  std::vector<double> caps_;
  core::IterativeResult result_;
};

// storm-500: what-if validation of one plan under a crash/recovery storm.
class Storm500 final : public Workload {
 public:
  static constexpr std::size_t kCoreSpecs = 160;

  explicit Storm500(std::uint64_t seed) : seed_(seed), pool_(kWorkers) {
    {
      SetupTimer timer{setup_ms, "net.scenario_ms"};
      scenario_ = std::make_unique<sim::Scenario>(
          sim::synthetic500_scenario(kTopologySeed));
    }
    const net::LatencyMatrix& matrix = scenario_->matrix;
    const std::size_t n = matrix.size();
    const std::vector<double> weights = core::demand_shares(scenario_->client_demand, n);
    {
      placement_ = core::grid_placement_for_client(matrix, 7, central_sites(matrix).front());
      const std::vector<double> caps(n, 1.25 * grid_.optimal_load());
      core::StrategyLpResult lp =
          core::optimize_access_strategy(matrix, grid_, placement_, caps, weights);
      check(lp.status == lp::SolveStatus::Optimal, "storm plan LP is optimal");
      strategy_ = std::move(lp.strategy);
    }
    const std::vector<double> site_load =
        core::site_loads_explicit(strategy_, placement_, n, weights);
    // Peak utilization 0.2: at 0.4, about one job in 130 fell into retry
    // amplification after a regional blackout of the plan's region (58% of
    // its requests abandoned, 4x the job time), which makes job time and
    // the degraded p99 heavy-tailed across seeds.
    rates_ = scenario_->arrival_rates_for(0.2, 1.0, site_load);
    double max_rtt = 0.0;
    for (std::size_t v = 0; v < n; ++v) {
      for (std::size_t w = 0; w < n; ++w) max_rtt = std::max(max_rtt, matrix.rtt(v, w));
    }
    config_.service_time_ms = 1.0;
    config_.strategy = sim::EngineStrategy::Explicit;
    config_.explicit_strategy = &strategy_;
    config_.warmup_ms = 500.0;
    config_.duration_ms = 20'000.0;
    config_.replications = 2;
    config_.pool = &pool_;
    config_.retry.timeout_ms = 1.25 * max_rtt + 25.0;
    config_.retry.max_attempts = 4;
    config_.retry.backoff_base_ms = 5.0;
    config_.retry.jitter_frac = 0.25;
    config_.failover = sim::FailoverMode::Suspicion;
    fault_.horizon_ms = config_.warmup_ms + config_.duration_ms;
    // Frequent short crashes: every job sees dozens of site outages and a
    // few regional blackouts, so the retried share (~5%) and the retry-tail
    // p99 repeat from job to job. Longer regional outages take out a whole
    // plan at once (it sits in one region) and turn jobs into bimodal
    // all-or-nothing runs.
    fault_.site = sim::FaultProcess::for_down_probability(0.004, 200.0);
    fault_.regional = sim::FaultProcess::for_down_probability(0.002, 150.0);
    fault_.site_region = sim::region_partition(scenario_->sites);
  }

  Storm500(const Storm500&) = delete;
  Storm500& operator=(const Storm500&) = delete;

  [[nodiscard]] std::size_t core_specs() const override { return kCoreSpecs; }

  JobOutput run(std::size_t spec, SpanLog& log, long job) override {
    JobOutput out;
    sim::EngineConfig config = config_;
    config.master_seed = derive_seed(seed_, 6, spec);
    sim::FaultInjectorConfig fault = fault_;
    fault.seed = derive_seed(seed_, 7, spec);
    config.outages = timed(log, job, "sim.fault_schedule_ms", out, [&] {
      return sim::FaultInjector{fault}.schedule(scenario_->site_count());
    });
    const sim::EngineResult result = timed(log, job, "sim.engine_ms", out, [&] {
      return sim::run_engine(scenario_->matrix, grid_, placement_, rates_, config);
    });
    check(result.issued == result.completed + result.failed + result.abandoned,
          "engine issued == completed + failed + abandoned");
    for (const sim::ReplicationResult& r : result.replications) {
      check(r.issued == r.completed + r.failed + r.abandoned,
            "replication issued == completed + failed + abandoned");
    }
    check(result.issued > 0 && std::isfinite(result.degraded_p99_ms),
          "engine simulated requests");
    out.ledger = {{"outages", std::to_string(config.outages.size())},
                  {"issued", std::to_string(result.issued)},
                  {"completed", std::to_string(result.completed)},
                  {"failed", std::to_string(result.failed)},
                  {"abandoned", std::to_string(result.abandoned)},
                  {"retries", std::to_string(result.retries)},
                  {"degraded_p99", exact(result.degraded_p99_ms)},
                  {"mean_response", exact(result.mean_response_ms)}};
    out.counts = {{"sim.requests_simulated", static_cast<double>(result.issued)},
                  {"sim.retries", static_cast<double>(result.retries)}};
    out.plan_ms = result.degraded_p99_ms;
    return out;
  }

  void verify(std::size_t, JobOutput&) override {}

 private:
  std::uint64_t seed_;
  common::ThreadPool pool_;
  quorum::GridQuorum grid_{7};
  std::unique_ptr<sim::Scenario> scenario_;
  core::Placement placement_;
  core::ExplicitStrategy strategy_;
  std::vector<double> rates_;
  sim::EngineConfig config_;
  sim::FaultInjectorConfig fault_;
};

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "plan-161") return std::make_unique<Plan161>(seed);
  if (name == "replan-161") return std::make_unique<Replan161>(seed);
  if (name == "storm-500") return std::make_unique<Storm500>(seed);
  throw std::invalid_argument("unknown workload: " + name);
}

// --- Closed loop ---------------------------------------------------------------

struct JobRecord {
  std::size_t spec = 0;
  double ms = 0.0;
  bool ok = true;
  std::string error;
  JobOutput out;
  std::map<std::string, std::uint64_t> obs_counters;  // Traced phase only.
};

struct Phase {
  std::string name;
  bool traced = false;
  double loop_s = 0.0;
  std::vector<JobRecord> jobs;
  std::vector<obs::MetricSnapshot> metrics;  // Traced phase only.
};

std::map<std::string, std::uint64_t> counter_values() {
  std::map<std::string, std::uint64_t> values;
  for (const obs::MetricSnapshot& m : obs::snapshot()) {
    if (m.kind == obs::MetricKind::Counter) values[m.name] = m.value;
  }
  return values;
}

class ClosedLoop {
 public:
  ClosedLoop(Workload& workload, SpanLog& log) : workload_(workload), log_(log) {}

  /// Runs one job of `spec`: times it, verifies its output, and checks its
  /// ledger against the first job of the same spec.
  JobRecord run_job(std::size_t spec, bool traced) {
    JobRecord record;
    record.spec = spec;
    const long job = next_job_++;
    std::map<std::string, std::uint64_t> before;
    if (traced) before = counter_values();
    const long span = log_.open("job", job);
    const Clock::time_point t0 = Clock::now();
    try {
      record.out = workload_.run(spec, log_, job);
      record.ms = ms_since(t0);
      log_.close(span);
    } catch (const std::exception& e) {
      record.ms = ms_since(t0);
      log_.close(span);
      record.ok = false;
      record.error = e.what();
      return record;
    }
    if (traced) {
      for (const auto& [name, value] : counter_values()) {
        const auto it = before.find(name);
        record.obs_counters[name] = value - (it == before.end() ? 0 : it->second);
      }
    }
    try {
      workload_.verify(spec, record.out);
    } catch (const std::exception& e) {
      record.ok = false;
      record.error = e.what();
      return record;
    }
    auto [it, inserted] = first_ledger_.emplace(spec, record.out.ledger);
    if (!inserted && it->second != record.out.ledger) {
      record.ok = false;
      record.error = "ledger mismatch with an earlier job of the same spec";
    }
    return record;
  }

  /// Closed loop over specs 0, 1, 2, ...: jobs back to back until
  /// `seconds` of job time has passed and at least `min_jobs` ran.
  /// Verification runs between jobs, outside the measured time.
  Phase run_phase(const std::string& name, bool traced, double seconds, std::size_t min_jobs) {
    Phase phase;
    phase.name = name;
    phase.traced = traced;
    double busy_s = 0.0;
    while (busy_s < seconds || phase.jobs.size() < min_jobs) {
      const std::size_t spec = phase.jobs.size();
      phase.jobs.push_back(run_job(spec, traced));
      busy_s += phase.jobs.back().ms / 1000.0;
    }
    phase.loop_s = busy_s;
    return phase;
  }

 private:
  Workload& workload_;
  SpanLog& log_;
  long next_job_ = 0;
  std::map<std::size_t, std::vector<std::pair<std::string, std::string>>> first_ledger_;
};

void write_number_map(std::ostream& out, const std::map<std::string, double>& values) {
  out << "{";
  bool first = true;
  for (const auto& [k, v] : values) {
    out << (first ? "" : ",") << json_string(k) << ":" << exact(v);
    first = false;
  }
  out << "}";
}

void write_phase(std::ostream& out, const Phase& phase) {
  out << "{\"name\":" << json_string(phase.name) << ",\"traced\":" << (phase.traced ? 1 : 0)
      << ",\"loop_s\":" << exact(phase.loop_s) << ",\"jobs\":[";
  for (std::size_t i = 0; i < phase.jobs.size(); ++i) {
    const JobRecord& j = phase.jobs[i];
    out << (i ? ",\n" : "\n") << "{\"spec\":" << j.spec << ",\"ms\":" << exact(j.ms)
        << ",\"ok\":" << (j.ok ? "true" : "false") << ",\"error\":" << json_string(j.error)
        << ",\"plan_ms\":" << exact(j.out.plan_ms) << ",\"layer_ms\":";
    write_number_map(out, j.out.layer_ms);
    out << ",\"counts\":";
    write_number_map(out, j.out.counts);
    out << ",\"ledger\":{";
    for (std::size_t k = 0; k < j.out.ledger.size(); ++k) {
      out << (k ? "," : "") << json_string(j.out.ledger[k].first) << ":"
          << json_string(j.out.ledger[k].second);
    }
    out << "},\"obs\":{";
    bool first = true;
    for (const auto& [k, v] : j.obs_counters) {
      if (v == 0) continue;
      out << (first ? "" : ",") << json_string(k) << ":" << v;
      first = false;
    }
    out << "}}";
  }
  out << "],\"metrics\":[";
  for (std::size_t i = 0; i < phase.metrics.size(); ++i) {
    const obs::MetricSnapshot& m = phase.metrics[i];
    out << (i ? "," : "") << "{\"name\":" << json_string(m.name) << ",\"value\":" << m.value
        << ",\"count\":" << m.histogram.count << ",\"buckets\":[";
    for (std::size_t b = 0; b < m.histogram.buckets.size(); ++b) {
      out << (b ? "," : "") << m.histogram.buckets[b];
    }
    out << "],\"upper\":[";
    for (std::size_t b = 0; b < m.histogram.buckets.size(); ++b) {
      const double ub = obs::bucket_upper_bound(b);
      out << (b ? "," : "") << (std::isfinite(ub) ? exact(ub) : exact(m.histogram.max));
    }
    out << "]}";
  }
  out << "]}";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
      have_seed = true;
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--out-dir") {
      args.out_dir = value;
    } else {
      throw std::invalid_argument("unknown argument: " + key);
    }
  }
  if (args.workload.empty() || !have_seed || !(args.seconds > 0.0) || args.out_dir.empty()) {
    throw std::invalid_argument(
        "usage: qp_perfbench --workload W --seed N --seconds S --trace 0|1 --out-dir DIR");
  }
  return args;
}

int run(const Args& args) {
  for (const char* var : {"QP_OBS_EXPORT", "QP_TRACE", "QP_TIMESERIES"}) {
    if (const char* v = std::getenv(var); v != nullptr && v[0] != '\0') {
      throw std::runtime_error(std::string(var) + " must be unset (perfbench/run.py pins it)");
    }
  }
  // Every call that fans out uses kWorkers threads: the dedicated pools
  // below and the shared pool, which reads QP_THREADS on first use.
  setenv("QP_THREADS", std::to_string(kWorkers).c_str(), 1);
  obs::set_enabled(false);

  // Set-up, repeated; the last instance is kept for the jobs.
  std::vector<double> setup_s;
  std::map<std::string, double> setup_layers;
  double setup_total_s = 0.0;
  std::unique_ptr<Workload> workload;
  while (setup_s.size() < kSetupMinRepeats ||
         (setup_total_s < kSetupSeconds && setup_s.size() < kSetupMaxRepeats)) {
    workload.reset();
    const Clock::time_point t0 = Clock::now();
    workload = make_workload(args.workload, args.seed);
    setup_s.push_back(ms_since(t0) / 1000.0);
    setup_total_s += setup_s.back();
    for (const auto& [k, v] : workload->setup_ms) setup_layers[k] += v;
  }

  SpanLog log;
  ClosedLoop loop{*workload, log};
  std::vector<Phase> phases;
  // Warm-up: one untimed job fills lazy caches before anything is measured.
  phases.push_back(loop.run_phase("warmup", false, 0.0, 1));

  const std::size_t pass = workload->core_specs();
  std::uint64_t trace_offset_us = 0;
  std::string trace_path;
  if (!args.trace) {
    phases.push_back(loop.run_phase("measure", false, args.seconds, pass));
  } else {
    phases.push_back(loop.run_phase("untraced", false, args.seconds / 2.0, 1));
    trace_path = args.out_dir + "/trace-" + args.workload + ".json";
    if (!obs::start_trace(trace_path)) {
      throw std::runtime_error("cannot open trace file " + trace_path);
    }
    obs::set_enabled(true);
    obs::reset();
    {
      // Marker span on this thread: its trace timestamp aligns the trace
      // clock with the span log's, and its tid names the client thread.
      const std::uint64_t before = now_us();
      { QP_TRACE_SPAN("perfbench.marker"); }
      trace_offset_us = before;
    }
    Phase traced = loop.run_phase("traced", true, args.seconds / 2.0, pass);
    traced.metrics = obs::snapshot();
    phases.push_back(std::move(traced));
    obs::set_enabled(false);
    obs::trace_flush_current_thread();
    obs::stop_trace();
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  std::ostringstream out;
  out << "{\"workload\":" << json_string(args.workload) << ",\"seed\":" << args.seed
      << ",\"env\":{\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"workers\":" << kWorkers << ",\"compiler\":" << json_string(QP_PERFBENCH_COMPILER)
      << ",\"build_type\":" << json_string(QP_PERFBENCH_BUILD_TYPE) << ",\"qp_threads\":"
      << json_string(std::getenv("QP_THREADS") ? std::getenv("QP_THREADS") : "") << "}"
      << ",\"core_specs\":" << pass << ",\"setup_s\":[";
  for (std::size_t i = 0; i < setup_s.size(); ++i) out << (i ? "," : "") << exact(setup_s[i]);
  out << "],\"setup_layers\":";
  for (auto& [k, v] : setup_layers) v /= static_cast<double>(setup_s.size());
  write_number_map(out, setup_layers);
  out << ",\"peak_rss_mb\":" << exact(peak_rss_mb) << ",\"trace_path\":"
      << json_string(trace_path) << ",\"trace_marker_us\":" << trace_offset_us
      << ",\"phases\":[";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    out << (i ? "," : "");
    write_phase(out, phases[i]);
  }
  out << "],\"spans\":[";
  const std::vector<SpanLog::Span>& spans = log.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanLog::Span& s = spans[i];
    out << (i ? ",\n" : "\n") << "[" << json_string(s.name) << "," << s.t0_us << ","
        << s.t1_us << "," << s.parent << "," << s.job << "]";
  }
  out << "]}\n";
  std::fputs(out.str().c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qp_perfbench: %s\n", e.what());
    return 2;
  }
}
