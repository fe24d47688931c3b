#include "core/response.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/eval_workspace.hpp"

namespace qp::core {

double rho(const net::LatencyMatrix& matrix, const Placement& placement,
           std::span<const double> site_load, double alpha, std::size_t client,
           const quorum::Quorum& quorum) {
  const std::vector<double>& row = matrix.row(client);
  double worst = 0.0;
  for (std::size_t u : quorum) {
    const std::size_t site = placement.site_of[u];
    worst = std::max(worst, row[site] + alpha * site_load[site]);
  }
  return worst;
}

std::vector<double> demand_shares(std::span<const double> client_demand,
                                  std::size_t client_count) {
  if (client_demand.empty()) return {};
  if (client_demand.size() != client_count) {
    throw std::invalid_argument{"demand_shares: demand vector size != client count"};
  }
  double sum = 0.0;
  for (double d : client_demand) {
    if (!(d >= 0.0) || !std::isfinite(d)) {
      throw std::invalid_argument{"demand_shares: demand must be finite and >= 0"};
    }
    sum += d;
  }
  const bool constant = std::all_of(client_demand.begin(), client_demand.end(),
                                    [&](double d) { return d == client_demand[0]; });
  if (constant || sum <= 0.0) return {};
  std::vector<double> shares(client_demand.size());
  for (std::size_t v = 0; v < client_demand.size(); ++v) {
    shares[v] = client_demand[v] / sum;
  }
  return shares;
}

namespace {

/// Weighted (or, for empty weights, exactly the historical uniform)
/// accumulation of the per-client response/network series into the averages.
struct WeightedAverager {
  std::span<const double> weights;  // Shares; empty = uniform 1/|V|.
  double response_sum = 0.0;
  double network_sum = 0.0;

  void add(std::size_t client, double response, double network) {
    if (weights.empty()) {
      response_sum += response;
      network_sum += network;
    } else {
      response_sum += weights[client] * response;
      network_sum += weights[client] * network;
    }
  }

  void finish(std::size_t client_count, Evaluation& eval) const {
    const double divisor =
        weights.empty() ? static_cast<double>(client_count) : 1.0;
    eval.avg_response_ms = response_sum / divisor;
    eval.avg_network_delay_ms = network_sum / divisor;
  }
};

}  // namespace

Evaluation evaluate_closest(const net::LatencyMatrix& matrix,
                            const quorum::QuorumSystem& system, const Placement& placement,
                            double alpha, std::span<const double> client_demand,
                            ExecutionModel model) {
  const std::vector<double> weights = demand_shares(client_demand, matrix.size());
  placement.validate(matrix.size());
  Evaluation eval;
  eval.site_load = site_loads_closest(matrix, system, placement, weights, model);
  eval.per_client_response.reserve(matrix.size());
  EvalWorkspace ws;
  WeightedAverager avg{weights};
  for (std::size_t v = 0; v < matrix.size(); ++v) {
    fill_element_distances(matrix, placement, v, ws.distances);
    // The quorum is chosen by network delay alone (that is what "closest"
    // means); the load term then applies to the chosen quorum.
    const quorum::Quorum quorum = system.best_quorum(ws.distances);
    double network = 0.0;
    for (std::size_t u : quorum) network = std::max(network, ws.distances[u]);
    const double response = rho(matrix, placement, eval.site_load, alpha, v, quorum);
    eval.per_client_response.push_back(response);
    avg.add(v, response, network);
  }
  avg.finish(matrix.size(), eval);
  return eval;
}

Evaluation evaluate_balanced(const net::LatencyMatrix& matrix,
                             const quorum::QuorumSystem& system, const Placement& placement,
                             double alpha, std::span<const double> client_demand,
                             ExecutionModel model) {
  const std::vector<double> weights = demand_shares(client_demand, matrix.size());
  placement.validate(matrix.size());
  Evaluation eval;
  // The balanced load model is demand-invariant: every client induces the
  // same per-element load, so any convex weighting reproduces the uniform
  // table.
  eval.site_load = site_loads_balanced(system, placement, matrix.size(), model);
  eval.per_client_response.reserve(matrix.size());
  EvalWorkspace ws;
  WeightedAverager avg{weights};
  for (std::size_t v = 0; v < matrix.size(); ++v) {
    fill_element_values(matrix, placement, eval.site_load, alpha, v, ws.values);
    fill_element_distances(matrix, placement, v, ws.distances);
    const double response = system.expected_max_uniform_scratch(ws.values, ws.scratch);
    const double network = system.expected_max_uniform_scratch(ws.distances, ws.scratch);
    eval.per_client_response.push_back(response);
    avg.add(v, response, network);
  }
  avg.finish(matrix.size(), eval);
  return eval;
}

Evaluation evaluate_explicit(const net::LatencyMatrix& matrix,
                             const quorum::QuorumSystem& system, const Placement& placement,
                             double alpha, const ExplicitStrategy& strategy,
                             std::span<const double> client_demand, ExecutionModel model) {
  const std::vector<double> weights = demand_shares(client_demand, matrix.size());
  placement.validate(matrix.size());
  strategy.validate(matrix.size(), system.universe_size());
  Evaluation eval;
  eval.site_load =
      site_loads_explicit(strategy, placement, matrix.size(), weights, model);
  eval.per_client_response.reserve(matrix.size());
  EvalWorkspace ws;
  WeightedAverager avg{weights};
  for (std::size_t v = 0; v < matrix.size(); ++v) {
    fill_element_values(matrix, placement, eval.site_load, alpha, v, ws.values);
    fill_element_distances(matrix, placement, v, ws.distances);
    double response = 0.0;
    double network = 0.0;
    const std::vector<double>& probs = strategy.probability[v];
    for (std::size_t i = 0; i < strategy.quorums.size(); ++i) {
      if (probs[i] == 0.0) continue;
      double value_max = 0.0;
      double distance_max = 0.0;
      for (std::size_t u : strategy.quorums[i]) {
        value_max = std::max(value_max, ws.values[u]);
        distance_max = std::max(distance_max, ws.distances[u]);
      }
      response += probs[i] * value_max;
      network += probs[i] * distance_max;
    }
    eval.per_client_response.push_back(response);
    avg.add(v, response, network);
  }
  avg.finish(matrix.size(), eval);
  return eval;
}

}  // namespace qp::core
