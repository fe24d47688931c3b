#include "core/objective.hpp"

#include <cmath>
#include <map>
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

namespace {

void check_weights(std::span<const double> weights, std::size_t client_count,
                   const char* where) {
  if (!weights.empty() && weights.size() != client_count) {
    throw std::invalid_argument{std::string{where} + ": client weight count != clients"};
  }
}

}  // namespace

std::optional<ExplicitStrategy> Objective::export_strategy(
    const net::LatencyMatrix& matrix, const quorum::QuorumSystem& system,
    const Placement& placement) const {
  (void)matrix;
  (void)system;
  (void)placement;
  return std::nullopt;  // Balanced: the engine samples uniform quorums directly.
}

std::vector<double> Objective::site_loads(const net::LatencyMatrix& matrix,
                                          const quorum::QuorumSystem& system,
                                          const Placement& placement) const {
  std::vector<double> loads(matrix.size(), 0.0);
  if (alpha() == 0.0) return loads;
  const std::span<const double> lambda = element_loads(system);
  if (lambda.empty()) return loads;
  if (lambda.size() != placement.universe_size()) {
    throw std::invalid_argument{"Objective::site_loads: element_loads size mismatch"};
  }
  for (std::size_t u = 0; u < lambda.size(); ++u) {
    QP_CHECK(placement.site_of[u] < loads.size(),
             "Objective::site_loads: placement maps an element past the matrix");
    loads[placement.site_of[u]] += lambda[u];
  }
  return loads;
}

void Objective::fill_values(const net::LatencyMatrix& matrix, const Placement& placement,
                            std::span<const double> site_load, std::size_t client,
                            std::vector<double>& out) const {
  const double a = alpha();
  if (a == 0.0 || site_load.empty()) {
    fill_element_distances(matrix, placement, client, out);
    return;
  }
  fill_element_values(matrix, placement, site_load, a, client, out);
}

double Objective::evaluate_ws(const net::LatencyMatrix& matrix,
                              const quorum::QuorumSystem& system,
                              const Placement& placement, EvalWorkspace& workspace) const {
  const std::span<const double> weights = client_weights();
  check_weights(weights, matrix.size(), "Objective::evaluate_ws");
  if (weights.empty()) {
    if (alpha() == 0.0) {
      return average_uniform_network_delay_ws(matrix, system, placement, workspace);
    }
    // One load table per evaluation; the per-client loop is allocation-free.
    const std::vector<double> load = site_loads(matrix, system, placement);
    double total = 0.0;
    for (std::size_t v = 0; v < matrix.size(); ++v) {
      fill_values(matrix, placement, load, v, workspace.values);
      total += system.expected_max_uniform_scratch(workspace.values, workspace.scratch);
    }
    return total / static_cast<double>(matrix.size());
  }
  const std::vector<double> load = site_loads(matrix, system, placement);
  double total = 0.0;
  for (std::size_t v = 0; v < matrix.size(); ++v) {
    fill_values(matrix, placement, load, v, workspace.values);
    total +=
        weights[v] * system.expected_max_uniform_scratch(workspace.values, workspace.scratch);
  }
  return total;
}

double Objective::evaluate(const net::LatencyMatrix& matrix,
                           const quorum::QuorumSystem& system,
                           const Placement& placement) const {
  EvalWorkspace workspace;
  return evaluate_ws(matrix, system, placement, workspace);
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

std::vector<double> ClosestStrategyObjective::site_loads(const net::LatencyMatrix& matrix,
                                                         const quorum::QuorumSystem& system,
                                                         const Placement& placement) const {
  check_weights(client_weights(), matrix.size(), "ClosestStrategyObjective::site_loads");
  return site_loads_closest(matrix, system, placement, client_weights(),
                            ExecutionModel::PerElement);
}

double ClosestStrategyObjective::evaluate_ws(const net::LatencyMatrix& matrix,
                                             const quorum::QuorumSystem& system,
                                             const Placement& placement,
                                             EvalWorkspace& workspace) const {
  // Mirrors evaluate_closest(...) arithmetic exactly (same load vector, same
  // quorum choices and tie-breaking via best_quorum, same rho and summation
  // order), minus the Evaluation bookkeeping.
  const std::span<const double> weights = client_weights();
  check_weights(weights, matrix.size(), "ClosestStrategyObjective::evaluate_ws");
  const std::vector<double> load = site_loads(matrix, system, placement);
  double total = 0.0;
  for (std::size_t v = 0; v < matrix.size(); ++v) {
    fill_element_distances(matrix, placement, v, workspace.distances);
    const quorum::Quorum quorum = system.best_quorum(workspace.distances);
    const double response = rho(matrix, placement, load, alpha_, v, quorum);
    total += weights.empty() ? response : weights[v] * response;
  }
  return weights.empty() ? total / static_cast<double>(matrix.size()) : total;
}

std::optional<ExplicitStrategy> ClosestStrategyObjective::export_strategy(
    const net::LatencyMatrix& matrix, const quorum::QuorumSystem& system,
    const Placement& placement) const {
  const std::vector<quorum::Quorum> chosen = closest_quorums(matrix, system, placement);
  ExplicitStrategy strategy;
  std::map<quorum::Quorum, std::size_t> index;
  std::vector<std::size_t> client_quorum(chosen.size());
  for (std::size_t v = 0; v < chosen.size(); ++v) {
    const auto [it, inserted] = index.try_emplace(chosen[v], strategy.quorums.size());
    if (inserted) strategy.quorums.push_back(chosen[v]);
    client_quorum[v] = it->second;
  }
  strategy.probability.assign(chosen.size(),
                              std::vector<double>(strategy.quorums.size(), 0.0));
  for (std::size_t v = 0; v < chosen.size(); ++v) {
    strategy.probability[v][client_quorum[v]] = 1.0;
  }
#if QP_PARITY_AUDIT_ENABLED
  // The exported deterministic strategy must be a proper distribution per
  // client (exactly one unit of mass) — the engine's sampler trusts this.
  for (std::size_t v = 0; v < chosen.size(); ++v) {
    double mass = 0.0;
    for (double p : strategy.probability[v]) mass += p;
    QP_PARITY_ASSERT(mass, 1.0, 1e-12,
                     "ClosestStrategyObjective::export_strategy: client row is not a "
                     "probability distribution");
  }
#endif
  return strategy;
}

const Objective& network_delay_objective() noexcept {
  static const NetworkDelayObjective objective;
  return objective;
}

}  // namespace qp::core
