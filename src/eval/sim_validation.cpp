#include "eval/sim_validation.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "common/rng.hpp"
#include "core/failure_objective.hpp"
#include "core/objective.hpp"
#include "core/placement.hpp"
#include "core/response.hpp"
#include "core/strategy.hpp"
#include "obs/trace.hpp"
#include "quorum/grid.hpp"
#include "quorum/majority.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"

namespace qp::eval {

namespace {

/// The injected fault process of the fault rows: stationary per-site down
/// probability and mean repair time.
constexpr double kFaultSiteProb = 0.08;
constexpr double kFaultMttrMs = 2'500.0;

struct SystemUnderTest {
  const quorum::QuorumSystem* system;
  const core::Placement* placement;
};

struct PointSpec {
  std::string strategy;  // "closest" | "balanced" | "lp".
  double rho = 0.0;
  sim::ArrivalModel arrivals = sim::ArrivalModel::Poisson;
  bool outage = false;
  bool fault = false;  // FaultInjector + Oracle failover + FailureAware analytic.
};

/// Runs one operating point: rate scaling, the analytic prediction at the
/// matching alpha, and the engine. `demand` is the raw per-client demand
/// (empty = uniform clients).
SimValidationPoint run_point(const net::LatencySpace& space,
                             const std::string& scenario_name,
                             const SystemUnderTest& sut, const PointSpec& spec,
                             std::span<const double> demand,
                             const core::ExplicitStrategy* lp_strategy,
                             const SimValidationConfig& config, std::uint64_t seed) {
  const quorum::QuorumSystem& system = *sut.system;
  const core::Placement& placement = *sut.placement;
  const std::size_t n = space.size();
  const std::vector<double> weights = core::demand_shares(demand, demand.size());

  std::vector<double> site_load;
  if (spec.strategy == "closest") {
    site_load = core::site_loads_closest(space, system, placement,
                                         std::span<const double>{weights});
  } else if (spec.strategy == "balanced") {
    site_load = core::site_loads_balanced(system, placement, n);
  } else {
    site_load = core::site_loads_explicit(*lp_strategy, placement, n,
                                          std::span<const double>{weights});
  }

  const double service = config.service_time_ms;
  const std::vector<double> base =
      demand.empty() ? std::vector<double>(n, 1.0)
                     : std::vector<double>(demand.begin(), demand.end());
  const std::vector<double> rates =
      sim::scale_rates_to_peak_utilization(base, site_load, service, spec.rho);
  const double total_rate = std::accumulate(rates.begin(), rates.end(), 0.0);
  // alpha * load_f(w) = total_rate * load_f(w) * S^2 = rho_w * S: the linear
  // low-utilization queueing surrogate the analytic objectives charge.
  const double alpha = total_rate * service * service;

  core::Evaluation analytic;
  if (spec.strategy == "closest") {
    analytic = core::evaluate_closest(space, system, placement, alpha, demand);
  } else if (spec.strategy == "balanced") {
    analytic = core::evaluate_balanced(space, system, placement, alpha, demand);
  } else {
    analytic = core::evaluate_explicit(space, system, placement, alpha, *lp_strategy,
                                       demand);
  }

  sim::EngineConfig engine;
  engine.service_time_ms = service;
  engine.warmup_ms = config.warmup_ms;
  engine.duration_ms = config.duration_ms;
  engine.replications = config.replications;
  engine.master_seed = seed;
  engine.arrival_model = spec.arrivals;
  if (spec.strategy == "closest") {
    engine.strategy = sim::EngineStrategy::Closest;
  } else if (spec.strategy == "balanced") {
    engine.strategy = sim::EngineStrategy::Balanced;
  } else {
    engine.strategy = sim::EngineStrategy::Explicit;
    engine.explicit_strategy = lp_strategy;
  }
  if (spec.outage) {
    const std::size_t victim = static_cast<std::size_t>(
        std::max_element(site_load.begin(), site_load.end()) - site_load.begin());
    const double start = config.warmup_ms + 0.25 * config.duration_ms;
    engine.outages.push_back({victim, start, start + 0.25 * config.duration_ms});
  }
  core::FailureAwareEvaluation fault_analytic{};
  if (spec.fault) {
    sim::FaultInjectorConfig fault_config;
    // Decorrelated from the engine's replication chain (same SplitMix64
    // stream family) so fault windows and arrival streams stay independent.
    fault_config.seed = seed ^ 0x9e3779b97f4a7c15ULL;
    fault_config.horizon_ms = config.warmup_ms + config.duration_ms;
    fault_config.site =
        sim::FaultProcess::for_down_probability(kFaultSiteProb, kFaultMttrMs);
    const sim::FaultInjector injector{fault_config};
    engine.outages = injector.schedule(n);
    // Timeout adapted to the topology: twice the slowest client->support
    // RTT plus queueing slack — rare under load alone, short against the
    // MTTR so crashed attempts fail over well inside an outage.
    const std::vector<std::size_t> support = placement.support_set();
    double max_rtt = 0.0;
    for (std::size_t v = 0; v < n; ++v) {
      for (std::size_t w : support) max_rtt = std::max(max_rtt, space.rtt(v, w));
    }
    engine.retry.timeout_ms = 1.25 * max_rtt + 25.0 * service;
    engine.retry.max_attempts = 4;
    engine.retry.backoff_base_ms = 0.0;  // Immediate re-choice, as the model.
    engine.failover = sim::FailoverMode::Oracle;

    core::FailureModel model;
    model.site_failure_prob = injector.steady_state_down();
    core::FailureAwareOptions options;
    options.seed = config.seed;
    options.mc_samples = 20'000;
    const core::FailureAwareObjective objective{alpha, model, demand, options};
    fault_analytic = objective.evaluate_detailed(space, system, placement);
  }
  const sim::EngineResult result = run_engine(space, system, placement, rates, engine);

  SimValidationPoint point;
  point.scenario = scenario_name;
  point.system = system.name();
  point.strategy = spec.strategy;
  point.arrivals = spec.arrivals == sim::ArrivalModel::Poisson ? "poisson" : "mmpp";
  point.target_rho = spec.rho;
  // Fault rows pin the engine's completed-request mean against the
  // degraded-mode objective's conditional mean E[R | available]; live rows
  // keep the matching live objective. Both add the one service time every
  // simulated reply pays.
  point.analytic_ms = spec.fault ? fault_analytic.expected_response_ms + service
                                 : analytic.avg_response_ms + service;
  point.simulated_ms = result.mean_response_ms;
  point.divergence_pct =
      100.0 * (point.simulated_ms - point.analytic_ms) / point.analytic_ms;
  point.p50_ms = result.p50_ms;
  point.p95_ms = result.p95_ms;
  point.p99_ms = result.p99_ms;
  point.peak_utilization = result.peak_utilization;
  point.completed = result.completed;
  point.dropped_messages = result.dropped_messages;
  point.outage = spec.outage;
  point.fault = spec.fault;
  point.unavailability_analytic = fault_analytic.unavailability;
  point.unavailability_sim = result.unavailability;
  point.retries = result.retries;
  point.abandoned = result.abandoned;
  return point;
}

/// Shared row enumeration: strategies x rho_values plus the optional rows,
/// shard-selected by deterministic point index. Point seeds derive from the
/// index (not the shard), so shards of one figure reproduce the unsharded
/// rows exactly.
std::vector<SimValidationPoint> run_figure(const net::LatencySpace& space,
                                           const std::string& scenario_name,
                                           std::span<const SystemUnderTest> suts,
                                           std::span<const double> demand,
                                           const core::ExplicitStrategy* grid_lp,
                                           const SimValidationConfig& config) {
  std::vector<PointSpec> specs;
  for (const char* strategy : {"closest", "balanced"}) {
    for (double rho : config.rho_values) specs.push_back({strategy, rho, {}, false});
  }
  std::vector<SimValidationPoint> points;
  std::size_t index = 0;
  const auto maybe_run = [&](const SystemUnderTest& sut, const PointSpec& spec) {
    const std::uint64_t seed =
        config.seed ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(index + 1));
    if (config.shard.contains(index)) {
      points.push_back(
          run_point(space, scenario_name, sut, spec, demand, grid_lp, config, seed));
    }
    ++index;
  };
  for (const SystemUnderTest& sut : suts) {
    for (const PointSpec& spec : specs) maybe_run(sut, spec);
  }
  if (grid_lp != nullptr) {
    for (double rho : config.rho_values) {
      maybe_run(suts.front(), {"lp", rho, {}, false});
    }
  }
  if (config.include_outage) {
    for (const SystemUnderTest& sut : suts) {
      maybe_run(sut, {"closest", 0.6, {}, true});
    }
  }
  if (config.include_mmpp) {
    for (const SystemUnderTest& sut : suts) {
      maybe_run(sut, {"balanced", 0.6, sim::ArrivalModel::Mmpp, false});
    }
  }
  if (config.include_fault) {
    for (const SystemUnderTest& sut : suts) {
      for (double rho : {0.15, 0.3}) {
        maybe_run(sut, {"closest", rho, {}, false, /*fault=*/true});
      }
    }
  }
  return points;
}

}  // namespace

std::vector<SimValidationPoint> sim_validation_sweep(const net::LatencySpace& space,
                                                     const SimValidationConfig& config) {
  QP_TRACE_SPAN("eval.sim_validation.sweep");
  const quorum::GridQuorum grid{7};
  const quorum::MajorityQuorum majority{49, 25};
  if (space.size() < grid.universe_size()) {
    throw std::invalid_argument{"sim_validation_sweep: need at least 49 sites"};
  }
  const core::Placement grid_placement = core::best_grid_placement(space, 7).placement;
  const core::Placement majority_placement =
      core::best_majority_placement(space, majority).placement;
  const SystemUnderTest suts[] = {{&grid, &grid_placement},
                                  {&majority, &majority_placement}};

  core::StrategyLpResult lp;
  const core::ExplicitStrategy* grid_lp = nullptr;
  if (config.include_lp) {
    const std::vector<double> caps(space.size(), 1.25 * grid.optimal_load());
    lp = core::optimize_access_strategy(space, grid, grid_placement, caps);
    if (lp.status == lp::SolveStatus::Optimal) grid_lp = &lp.strategy;
  }
  return run_figure(space, "planetlab-50", suts, {}, grid_lp, config);
}

std::vector<SimValidationPoint> sim_validation_scenario(const sim::Scenario& scenario,
                                                        const SimValidationConfig& config) {
  const quorum::GridQuorum grid{7};
  const quorum::MajorityQuorum majority{49, 25};
  const std::vector<std::size_t> anchors = central_sites(scenario.matrix, 16);
  const core::Placement grid_placement =
      core::best_grid_placement(scenario.matrix, 7, anchors).placement;
  const core::Placement majority_placement =
      core::best_majority_placement(scenario.matrix, majority, anchors).placement;
  const SystemUnderTest suts[] = {{&grid, &grid_placement},
                                  {&majority, &majority_placement}};
  return run_figure(scenario.matrix, scenario.name, suts, scenario.client_demand,
                    nullptr, config);
}

}  // namespace qp::eval
