#include "core/objective.hpp"

#include <cmath>
#include <stdexcept>

#include "common/check.hpp"
#include "core/response.hpp"
#include "core/strategy.hpp"

namespace qp::core {

// demand_shares collapses constant demand to the empty (uniform)
// representation, so uniform evaluations run the historical unweighted
// arithmetic and reproduce pre-demand results bitwise.
Objective::Objective(std::span<const double> client_demand)
    : weights_(demand_shares(client_demand, client_demand.size())) {}

std::vector<double> Objective::site_loads(const net::LatencySpace& space,
                                          const quorum::QuorumSystem& system,
                                          const Placement& placement) const {
  if (access_strategy() == AccessStrategy::Closest) {
    return site_loads_closest(space, system, placement, client_weights(),
                              ExecutionModel::PerElement);
  }
  std::vector<double> loads(space.size(), 0.0);
  if (alpha() == 0.0) return loads;
  const std::span<const double> lambda = element_loads(system);
  if (lambda.empty()) return loads;
  if (lambda.size() != placement.universe_size()) {
    throw std::invalid_argument{"Objective::site_loads: element_loads size mismatch"};
  }
  for (std::size_t u = 0; u < lambda.size(); ++u) {
    QP_CHECK(placement.site_of[u] < loads.size(),
             "Objective::site_loads: placement maps an element past the space");
    loads[placement.site_of[u]] += lambda[u];
  }
  return loads;
}

double Objective::evaluate_ws(const net::LatencySpace& space,
                              const quorum::QuorumSystem& system,
                              const Placement& placement, EvalWorkspace& workspace) const {
  const std::span<const double> weights = client_weights();
  if (!weights.empty() && weights.size() != space.size()) {
    throw std::invalid_argument{"Objective::evaluate_ws: client weight count != clients"};
  }
  if (access_strategy() == AccessStrategy::Closest) {
    return closest_pass(space, system, placement, alpha(), weights,
                        ExecutionModel::PerElement, nullptr);
  }
  // alpha == 0 needs no load table: the pass reads distances only.
  const std::vector<double> load =
      alpha() == 0.0 ? std::vector<double>{} : site_loads(space, system, placement);
  return balanced_pass(space, system, placement, load, alpha(), weights, workspace, nullptr);
}

double Objective::evaluate(const net::LatencySpace& space,
                           const quorum::QuorumSystem& system,
                           const Placement& placement) const {
  placement.validate(space.size());
  EvalWorkspace workspace;
  return evaluate_ws(space, system, placement, workspace);
}

std::string NetworkDelayObjective::name() const {
  return client_weights().empty() ? "network-delay" : "network-delay+demand";
}

LoadAwareObjective::LoadAwareObjective(double alpha, std::span<const double> client_demand)
    : Objective(client_demand), alpha_(alpha) {
  if (!(alpha >= 0.0) || !std::isfinite(alpha)) {
    throw std::invalid_argument{"LoadAwareObjective: alpha must be finite and >= 0"};
  }
}

LoadAwareObjective LoadAwareObjective::for_demand(double client_demand) {
  return LoadAwareObjective{kQuWriteServiceMs * client_demand};
}

LoadAwareObjective LoadAwareObjective::for_demand(std::span<const double> client_demand) {
  double mean = 0.0;
  if (!client_demand.empty()) {
    for (double d : client_demand) mean += d;
    mean /= static_cast<double>(client_demand.size());
  }
  return LoadAwareObjective{kQuWriteServiceMs * mean, client_demand};
}

std::string LoadAwareObjective::name() const {
  const std::string base = "load-aware(alpha=" + std::to_string(alpha_) + ")";
  return client_weights().empty() ? base : base + "+demand";
}

std::span<const double> LoadAwareObjective::element_loads(
    const quorum::QuorumSystem& system) const {
  return system.uniform_load_cached();
}

ClosestStrategyObjective::ClosestStrategyObjective(double alpha,
                                                   std::span<const double> client_demand)
    : Objective(client_demand), alpha_(alpha) {
  if (!(alpha >= 0.0) || !std::isfinite(alpha)) {
    throw std::invalid_argument{"ClosestStrategyObjective: alpha must be finite and >= 0"};
  }
}

ClosestStrategyObjective ClosestStrategyObjective::for_demand(double client_demand) {
  return ClosestStrategyObjective{kQuWriteServiceMs * client_demand};
}

ClosestStrategyObjective ClosestStrategyObjective::for_demand(
    std::span<const double> client_demand) {
  double mean = 0.0;
  if (!client_demand.empty()) {
    for (double d : client_demand) mean += d;
    mean /= static_cast<double>(client_demand.size());
  }
  return ClosestStrategyObjective{kQuWriteServiceMs * mean, client_demand};
}

std::string ClosestStrategyObjective::name() const {
  const std::string base = "closest(alpha=" + std::to_string(alpha_) + ")";
  return client_weights().empty() ? base : base + "+demand";
}

const Objective& network_delay_objective() noexcept {
  static const NetworkDelayObjective objective;
  return objective;
}

}  // namespace qp::core
