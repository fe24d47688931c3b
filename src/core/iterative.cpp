#include "core/iterative.hpp"

#include <stdexcept>

#include "core/response.hpp"

namespace qp::core {

namespace {

/// An iteration must improve the response time by more than this (ms) for
/// the alternation to continue.
constexpr double kImprovementTolerance = 1e-9;

}  // namespace

IterativeResult iterative_placement(const net::LatencySpace& space,
                                    const quorum::QuorumSystem& system,
                                    std::span<const double> capacities,
                                    const Objective& objective,
                                    const IterativeOptions& options) {
  const double alpha = objective.alpha();
  // Demand shares weight every evaluation, its load attribution, AND the
  // phase-2 LPs: both the delay objective and the capacity-row load
  // coefficients charge client v its demand share, so the alternation's
  // load-preservation argument holds for skewed workloads too (the phase-1
  // loads it pins the caps to are demand-weighted the same way).
  const std::span<const double> demand = objective.client_weights();
  const std::vector<quorum::Quorum> quorums = system.enumerate_quorums();
  const std::size_t m = quorums.size();

  // p^0 = uniform distribution for every client (§4.2).
  std::vector<double> average_distribution(m, 1.0 / static_cast<double>(m));

  IterativeResult accepted;
  bool have_accepted = false;
  IterativeResult result;

  // Basis of the last optimal phase-2 LP and the placement support set it
  // was solved under; reused only while the support set (and so the LP's
  // row/column shape) is unchanged across rounds.
  lp::Basis warm_basis;
  std::vector<std::size_t> warm_support;

  for (std::size_t j = 1; j <= options.max_iterations; ++j) {
    IterationRecord record;
    record.iteration = j;

    // Phase 1: many-to-one placement under the average strategy.
    const ManyToOneSearchResult search = best_many_to_one_placement(
        space, system, average_distribution, capacities, options.anchor_candidates,
        options.placement);
    if (search.best.status != lp::SolveStatus::Optimal) {
      if (!have_accepted) {
        throw std::runtime_error{
            "iterative_placement: placement LP infeasible in the first iteration "
            "(capacities too low for the quorum system)"};
      }
      break;
    }
    const Placement& placement = search.best.placement;
    record.max_capacity_violation = search.best.max_capacity_violation;

    const ExplicitStrategy carried =
        common_strategy(quorums, average_distribution, space.size());
    const Evaluation phase1 =
        evaluate_explicit(space, system, placement, alpha, carried, demand);
    record.response_after_placement = phase1.avg_response_ms;
    record.network_after_placement = phase1.avg_network_delay_ms;

    // Phase 2: re-optimize access strategies with cap(v) = load_{f_j}(v), so
    // the LP may only re-route delay, never concentrate load further.
    std::vector<double> load_caps = phase1.site_load;
    for (double& cap : load_caps) cap = cap * (1.0 + 1e-9) + 1e-12;
    StrategyLpOptions strategy_options = options.strategy;
    const std::vector<std::size_t> support = placement.support_set();
    if (options.warm_start && !warm_basis.empty() && support == warm_support) {
      strategy_options.simplex.initial_basis = warm_basis;
      record.lp_warm_started = true;
    }
    const StrategyLpResult lp_result = optimize_access_strategy(
        space, system, placement, load_caps, demand, strategy_options);
    record.lp_iterations = lp_result.lp_iterations;
    if (lp_result.status != lp::SolveStatus::Optimal) {
      // The carried strategy is feasible for these capacities by
      // construction, so this indicates numerical trouble; stop cleanly.
      result.history.push_back(record);
      break;
    }
    if (options.warm_start && !lp_result.basis.empty()) {
      warm_basis = lp_result.basis;
      warm_support = support;
    }
    const Evaluation phase2 =
        evaluate_explicit(space, system, placement, alpha, lp_result.strategy, demand);
    record.response_after_strategy = phase2.avg_response_ms;
    record.network_after_strategy = phase2.avg_network_delay_ms;

    const bool improved = !have_accepted ||
                          phase2.avg_response_ms <
                              accepted.avg_response - kImprovementTolerance;
    record.accepted = improved;
    result.history.push_back(record);
    if (!improved) break;

    accepted.placement = placement;
    accepted.strategy = lp_result.strategy;
    accepted.avg_response = phase2.avg_response_ms;
    accepted.avg_network_delay = phase2.avg_network_delay_ms;
    have_accepted = true;
    average_distribution = lp_result.strategy.average_distribution();
  }

  if (!have_accepted) {
    throw std::runtime_error{"iterative_placement: no iteration produced a placement"};
  }
  accepted.history = std::move(result.history);
  return accepted;
}

}  // namespace qp::core
