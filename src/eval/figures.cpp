#include "eval/figures.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>

#include "common/thread_pool.hpp"
#include "core/capacity.hpp"
#include "core/iterative.hpp"
#include "core/local_search.hpp"
#include "core/objective.hpp"
#include "core/placement.hpp"
#include "core/response.hpp"
#include "core/strategy.hpp"
#include "quorum/grid.hpp"
#include "quorum/majority.hpp"
#include "quorum/singleton.hpp"
#include "sim/client_sites.hpp"
#include "sim/engine.hpp"

namespace qp::eval {

PointShard parse_point_shard(const char* spec) {
  if (spec == nullptr || *spec == '\0') return {};
  const std::string text{spec};
  const std::size_t slash = text.find('/');
  std::size_t k = 0;
  std::size_t n = 0;
  try {
    if (slash == std::string::npos) throw std::invalid_argument{"no slash"};
    const std::string k_text = text.substr(0, slash);
    const std::string n_text = text.substr(slash + 1);
    // Digits only: std::stoul alone would wrap "-1" to 2^64-1 and accept
    // signs/whitespace, silently selecting an almost-empty shard.
    const auto all_digits = [](const std::string& s) {
      return !s.empty() && std::all_of(s.begin(), s.end(), [](unsigned char c) {
        return std::isdigit(c) != 0;
      });
    };
    if (!all_digits(k_text) || !all_digits(n_text)) {
      throw std::invalid_argument{"non-digit characters"};
    }
    k = std::stoul(k_text);
    n = std::stoul(n_text);
  } catch (const std::exception&) {
    throw std::invalid_argument{"parse_point_shard: expected K/N (1-based), got '" +
                                text + "'"};
  }
  if (n < 1 || k < 1 || k > n) {
    throw std::invalid_argument{"parse_point_shard: K/N requires 1 <= K <= N, got '" +
                                text + "'"};
  }
  return PointShard{k - 1, n};
}

PointShard point_shard_from_env() { return parse_point_shard(std::getenv("QP_POINT_SHARD")); }

std::vector<QuPoint> qu_response_surface(const net::LatencySpace& space,
                                         const QuSweepConfig& config) {
  std::vector<QuPoint> points;
  for (std::size_t t : config.t_values) {
    const quorum::MajorityQuorum system =
        quorum::make_majority(quorum::MajorityFamily::QuThreshold, t);
    if (system.universe_size() > space.size()) continue;

    // Server placement per §3: the known one-to-one algorithm minimizing
    // average uniform-strategy network delay.
    const core::PlacementSearchResult search =
        core::best_majority_placement(space, system);
    const std::vector<std::size_t> client_sites = sim::representative_client_sites(
        space, system, search.placement, config.client_site_count);
    const std::vector<double> client_mask =
        sim::client_site_mask(space.size(), client_sites);

    for (std::size_t total_clients : config.client_counts) {
      const std::size_t per_site =
          std::max<std::size_t>(1, total_clients / client_sites.size());
      sim::EngineConfig sim_config;
      sim_config.closed_loop_clients = per_site;
      sim_config.service_time_ms = config.service_time_ms;
      sim_config.duration_ms = config.duration_ms;
      sim_config.warmup_ms = config.warmup_ms;
      sim_config.replications = 1;
      sim_config.master_seed = config.seed + 1000 * t + total_clients;
      const sim::EngineResult run = sim::run_engine(space, system, search.placement,
                                                    client_mask, sim_config);

      QuPoint point;
      point.t = t;
      point.universe = system.universe_size();
      point.clients = per_site * client_sites.size();
      point.network_delay_ms = run.mean_network_delay_ms;
      point.response_ms = run.mean_response_ms;
      point.throughput_rps =
          static_cast<double>(run.completed) / (config.duration_ms / 1000.0);
      points.push_back(point);
    }
  }
  return points;
}

std::vector<LowDemandPoint> low_demand_sweep(const net::LatencySpace& space) {
  std::vector<LowDemandPoint> points;

  // Singleton baseline (one row, universe size 1).
  {
    const quorum::SingletonQuorum singleton;
    const core::Placement placement = core::singleton_placement(space);
    const core::Evaluation eval =
        core::evaluate_closest(space, singleton, placement, /*alpha=*/0.0);
    points.push_back(LowDemandPoint{singleton.name(), 1, eval.avg_response_ms});
  }

  // The three Majority families, t growing until n exceeds the site count.
  for (const quorum::MajorityFamily family :
       {quorum::MajorityFamily::SimpleMajority, quorum::MajorityFamily::ByzantineMajority,
        quorum::MajorityFamily::QuThreshold}) {
    for (std::size_t t = 1; quorum::family_universe(family, t) <= space.size(); ++t) {
      const quorum::MajorityQuorum system = quorum::make_majority(family, t);
      const core::PlacementSearchResult search =
          core::best_majority_placement(space, system);
      const core::Evaluation eval =
          core::evaluate_closest(space, system, search.placement, /*alpha=*/0.0);
      points.push_back(
          LowDemandPoint{quorum::family_name(family), system.universe_size(),
                         eval.avg_response_ms});
    }
  }

  // Grid, k growing until k^2 exceeds the site count.
  for (std::size_t k = 2; k * k <= space.size(); ++k) {
    const quorum::GridQuorum system{k};
    const core::PlacementSearchResult search = core::best_grid_placement(space, k);
    const core::Evaluation eval =
        core::evaluate_closest(space, system, search.placement, /*alpha=*/0.0);
    points.push_back(LowDemandPoint{"Grid", system.universe_size(), eval.avg_response_ms});
  }
  return points;
}

std::vector<GridDemandPoint> grid_demand_sweep(const net::LatencySpace& space,
                                               std::span<const double> demands,
                                               std::size_t max_side,
                                               std::span<const double> demand_profile,
                                               PointShard shard) {
  if (max_side == 0) {
    max_side = static_cast<std::size_t>(std::sqrt(static_cast<double>(space.size())));
  }
  std::vector<GridDemandPoint> points;
  std::size_t point_index = 0;  // Deterministic (side, demand) enumeration.
  for (std::size_t k = 2; k <= max_side && k * k <= space.size(); ++k) {
    std::vector<std::size_t> selected;
    for (std::size_t i = 0; i < demands.size(); ++i) {
      if (shard.contains(point_index++)) selected.push_back(i);
    }
    if (selected.empty()) continue;  // Skip the placement search entirely.
    const quorum::GridQuorum system{k};
    const core::PlacementSearchResult search = core::best_grid_placement(space, k);
    // Each demand level is an independent evaluation of the same placement;
    // fan out on the pool, collect into per-demand slots, append in order.
    std::vector<std::array<GridDemandPoint, 2>> per_demand(selected.size());
    common::global_thread_pool().parallel_for(0, selected.size(), [&](std::size_t s) {
      const double demand = demands[selected[s]];
      const double alpha = core::kQuWriteServiceMs * demand;
      // demand_profile weights clients by demand share (empty or constant =
      // the exact uniform evaluation); alpha stays the mean-demand §7
      // coefficient per level.
      const core::Evaluation closest =
          core::evaluate_closest(space, system, search.placement, alpha, demand_profile);
      const core::Evaluation balanced =
          core::evaluate_balanced(space, system, search.placement, alpha, demand_profile);
      per_demand[s][0] = GridDemandPoint{k * k, demand, "closest", closest.avg_response_ms,
                                         closest.avg_network_delay_ms};
      per_demand[s][1] = GridDemandPoint{k * k, demand, "balanced",
                                         balanced.avg_response_ms,
                                         balanced.avg_network_delay_ms};
    });
    for (const auto& pair : per_demand) {
      points.push_back(pair[0]);
      points.push_back(pair[1]);
    }
  }
  return points;
}

std::vector<CapacityPoint> capacity_sweep(const net::LatencySpace& space,
                                          const CapacitySweepConfig& config) {
  std::vector<CapacityPoint> points;
  const double alpha = core::kQuWriteServiceMs * config.client_demand;
  std::size_t point_index = 0;  // Deterministic (side, level) enumeration.
  for (std::size_t k = config.min_side; k <= config.max_side && k * k <= space.size();
       ++k) {
    const std::vector<double> all_levels =
        core::uniform_capacity_levels(quorum::GridQuorum{k}.optimal_load(), config.levels);
    std::vector<double> levels;
    for (double level : all_levels) {
      if (config.shard.contains(point_index++)) levels.push_back(level);
    }
    if (levels.empty()) continue;  // Skip the placement search entirely.
    const quorum::GridQuorum system{k};
    const core::PlacementSearchResult search = core::best_grid_placement(space, k);
    const std::vector<std::size_t> support = search.placement.support_set();
    const double l_opt = system.optimal_load();

    // Each capacity level solves its own LP(s) against shared read-only
    // state; fan the levels out on the pool and append results in order.
    std::vector<std::vector<CapacityPoint>> per_level(levels.size());
    common::global_thread_pool().parallel_for(0, levels.size(), [&](std::size_t i) {
      const double level = levels[i];
      lp::Basis uniform_basis;
      // Uniform capacities cap(v) = c_i.
      {
        const std::vector<double> caps = core::uniform_capacities(space.size(), level);
        const core::StrategyLpResult lp =
            core::optimize_access_strategy(space, system, search.placement, caps);
        uniform_basis = lp.basis;
        CapacityPoint point;
        point.universe = k * k;
        point.capacity_level = level;
        point.nonuniform = false;
        point.feasible = lp.status == lp::SolveStatus::Optimal;
        if (point.feasible) {
          const core::Evaluation eval = core::evaluate_explicit(
              space, system, search.placement, alpha, lp.strategy);
          point.response_ms = eval.avg_response_ms;
          point.network_delay_ms = eval.avg_network_delay_ms;
        }
        per_level[i].push_back(point);
      }
      // Non-uniform capacities in [beta, gamma] = [L_opt, c_i] (§7).
      if (config.include_nonuniform) {
        const std::vector<double> caps =
            core::nonuniform_capacities(space, support, l_opt, level);
        // Same placement, same LP shape, different rhs/caps: seed from the
        // uniform solve's optimal basis (empty, so crash-started, when that
        // solve was not Optimal).
        core::StrategyLpOptions warm_options;
        warm_options.simplex.initial_basis = uniform_basis;
        const core::StrategyLpResult lp = core::optimize_access_strategy(
            space, system, search.placement, caps, {}, warm_options);
        CapacityPoint point;
        point.universe = k * k;
        point.capacity_level = level;
        point.nonuniform = true;
        point.feasible = lp.status == lp::SolveStatus::Optimal;
        if (point.feasible) {
          const core::Evaluation eval = core::evaluate_explicit(
              space, system, search.placement, alpha, lp.strategy);
          point.response_ms = eval.avg_response_ms;
          point.network_delay_ms = eval.avg_network_delay_ms;
        }
        per_level[i].push_back(point);
      }
    });
    for (const std::vector<CapacityPoint>& level_points : per_level) {
      points.insert(points.end(), level_points.begin(), level_points.end());
    }
  }
  return points;
}

std::vector<std::size_t> central_sites(const net::LatencySpace& space, std::size_t count) {
  count = std::min(count, space.size());
  std::vector<std::size_t> order(space.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<double> average(space.size());
  for (std::size_t v = 0; v < space.size(); ++v) average[v] = net::average_rtt_from(space, v);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return average[a] < average[b]; });
  order.resize(count);
  return order;
}

std::vector<IterativePoint> iterative_sweep(const net::LatencySpace& space,
                                            const IterativeSweepConfig& config) {
  const quorum::GridQuorum system{config.side};
  if (system.universe_size() > space.size()) {
    throw std::invalid_argument{"iterative_sweep: grid larger than topology"};
  }
  std::vector<IterativePoint> points;

  const std::vector<double> all_levels =
      core::uniform_capacity_levels(system.optimal_load(), config.levels);
  std::vector<double> levels;
  for (std::size_t i = 0; i < all_levels.size(); ++i) {
    if (config.shard.contains(i)) levels.push_back(all_levels[i]);
  }
  if (levels.empty()) return points;  // Skip the placement search entirely.

  // One-to-one baseline (balanced strategy, matching the uniform access the
  // iterative algorithm starts from).
  const core::PlacementSearchResult one_to_one =
      core::best_grid_placement(space, config.side);
  const core::Evaluation baseline =
      core::evaluate_balanced(space, system, one_to_one.placement, config.alpha);

  const std::vector<std::size_t> anchors =
      config.anchor_count == 0 ? std::vector<std::size_t>{}
                               : central_sites(space, config.anchor_count);

  // Every capacity level runs the full iterative algorithm independently;
  // fan the levels out on the pool, append each level's rows in order.
  std::vector<std::vector<IterativePoint>> per_level(levels.size());
  common::global_thread_pool().parallel_for(0, levels.size(), [&](std::size_t i) {
    const double level = levels[i];
    per_level[i].push_back(IterativePoint{level, "one-to-one",
                                          baseline.avg_network_delay_ms,
                                          baseline.avg_response_ms});
    const std::vector<double> caps = core::uniform_capacities(space.size(), level);
    core::IterativeOptions options;
    options.anchor_candidates = anchors;
    options.warm_start = config.warm_start;
    const core::IterativeResult iterative =
        core::iterative_placement(space, system, caps, core::LoadAwareObjective{config.alpha},
                                  options);
    for (const core::IterationRecord& record : iterative.history) {
      const std::string prefix = "iter" + std::to_string(record.iteration);
      per_level[i].push_back(IterativePoint{level, prefix + "-phase1",
                                            record.network_after_placement,
                                            record.response_after_placement});
      per_level[i].push_back(IterativePoint{level, prefix + "-phase2",
                                            record.network_after_strategy,
                                            record.response_after_strategy});
    }
  });
  for (const std::vector<IterativePoint>& level_points : per_level) {
    points.insert(points.end(), level_points.begin(), level_points.end());
  }
  return points;
}

namespace {

double elapsed_ms(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   since)
      .count();
}

/// Two rows (constructive, local-opt) for one (system, objective) pair on
/// one scenario.
void large_topology_rows(const sim::Scenario& scenario,
                         const quorum::QuorumSystem& system,
                         const std::function<core::Placement(std::size_t)>& builder,
                         const core::Objective& objective, const std::string& label,
                         const LargeTopologyConfig& config,
                         std::vector<LargeTopologyPoint>& points) {
  const net::LatencySpace& space = scenario.matrix;
  const std::vector<std::size_t> anchors =
      config.anchor_count == 0 ? std::vector<std::size_t>{}
                               : central_sites(space, config.anchor_count);

  LargeTopologyPoint constructive;
  constructive.scenario = scenario.name;
  constructive.system = system.name();
  constructive.objective = label;
  constructive.stage = "constructive";
  constructive.alpha = objective.alpha();
  auto start = std::chrono::steady_clock::now();
  const core::PlacementSearchResult search =
      core::best_placement(space, system, builder, anchors, objective);
  constructive.stage_ms = elapsed_ms(start);
  constructive.response_ms = search.avg_network_delay;  // Objective value.
  constructive.network_delay_ms =
      core::network_delay_objective().evaluate(space, system, search.placement);
  points.push_back(constructive);

  LargeTopologyPoint optimum = constructive;
  optimum.stage = "local-opt";
  core::LocalSearchOptions options;
  options.objective = &objective;
  options.max_rounds = config.max_rounds;
  start = std::chrono::steady_clock::now();
  const core::LocalSearchResult polished =
      core::local_search_placement(space, system, search.placement, options);
  optimum.stage_ms = elapsed_ms(start);
  optimum.response_ms = polished.objective;
  optimum.network_delay_ms =
      core::network_delay_objective().evaluate(space, system, polished.placement);
  optimum.moves = polished.moves;
  points.push_back(optimum);
}

}  // namespace

std::vector<LargeTopologyPoint> large_topology_sweep(const sim::Scenario& scenario,
                                                     const LargeTopologyConfig& config) {
  const net::LatencySpace& space = scenario.matrix;
  const std::size_t grid_universe = config.grid_side * config.grid_side;
  if (grid_universe > space.size() || config.majority_universe > space.size()) {
    throw std::invalid_argument{"large_topology_sweep: topology smaller than universe"};
  }
  // Demand-weighted objectives: the scenario's Pareto demand vector weights
  // the per-client terms (and the closest-strategy load attribution) instead
  // of being condensed into one alpha.
  const core::LoadAwareObjective load_aware = scenario.load_objective();
  const core::ClosestStrategyObjective closest = scenario.closest_objective();

  std::vector<LargeTopologyPoint> points;
  const quorum::GridQuorum grid{config.grid_side};
  const auto grid_builder = [&](std::size_t v0) {
    return core::grid_placement_for_client(space, config.grid_side, v0);
  };
  const quorum::MajorityQuorum majority{config.majority_universe, config.majority_quorum};
  const auto majority_builder = [&](std::size_t v0) {
    return core::majority_ball_placement(space, config.majority_universe, v0);
  };

  large_topology_rows(scenario, grid, grid_builder, load_aware, "load-aware", config,
                      points);
  if (config.include_closest) {
    large_topology_rows(scenario, grid, grid_builder, closest, "closest", config, points);
  }
  large_topology_rows(scenario, majority, majority_builder, load_aware, "load-aware",
                      config, points);
  if (config.include_closest) {
    large_topology_rows(scenario, majority, majority_builder, closest, "closest", config,
                        points);
  }
  return points;
}

}  // namespace qp::eval
