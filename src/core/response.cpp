#include "core/response.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace qp::core {

double rho(const net::LatencySpace& space, const Placement& placement,
           std::span<const double> site_load, double alpha, std::size_t client,
           const quorum::Quorum& quorum) {
  double worst = 0.0;
  for (std::size_t u : quorum) {
    const std::size_t site = placement.site_of[u];
    worst = std::max(worst, space.rtt(client, site) + alpha * site_load[site]);
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

  /// Returns the average response; `detail` (when non-null) gets both.
  double finish(std::size_t client_count, Evaluation* detail) const {
    const double divisor =
        weights.empty() ? static_cast<double>(client_count) : 1.0;
    if (detail != nullptr) {
      detail->avg_response_ms = response_sum / divisor;
      detail->avg_network_delay_ms = network_sum / divisor;
    }
    return response_sum / divisor;
  }
};

}  // namespace

double balanced_pass(const net::LatencySpace& space, const quorum::QuorumSystem& system,
                     const Placement& placement, std::span<const double> site_load,
                     double alpha, std::span<const double> shares, EvalWorkspace& workspace,
                     Evaluation* detail) {
  // d + 0 * load == d, so alpha == 0 reads the distances alone and its
  // response series doubles as the network series.
  const bool load_term = alpha != 0.0 && !site_load.empty();
  WeightedAverager avg{shares};
  for (std::size_t v = 0; v < space.size(); ++v) {
    double response = 0.0;
    double network = 0.0;
    if (load_term) {
      fill_element_values(space, placement, site_load, alpha, v, workspace.values);
      response = system.expected_max_uniform_scratch(workspace.values, workspace.scratch);
      if (detail != nullptr) {
        fill_element_distances(space, placement, v, workspace.distances);
        network = system.expected_max_uniform_scratch(workspace.distances, workspace.scratch);
      }
    } else {
      fill_element_distances(space, placement, v, workspace.distances);
      response = system.expected_max_uniform_scratch(workspace.distances, workspace.scratch);
      network = response;
    }
    if (detail != nullptr) detail->per_client_response.push_back(response);
    avg.add(v, response, network);
  }
  return avg.finish(space.size(), detail);
}

double closest_pass(const net::LatencySpace& space, const quorum::QuorumSystem& system,
                    const Placement& placement, double alpha,
                    std::span<const double> shares, ExecutionModel model,
                    Evaluation* detail) {
  // The quorum is chosen by network delay alone (that is what "closest"
  // means); the load term then applies to the chosen quorum.
  const std::vector<quorum::Quorum> chosen = closest_quorums(space, system, placement);
  std::vector<double> load = site_loads_chosen(chosen, placement, space.size(), shares, model);
  WeightedAverager avg{shares};
  for (std::size_t v = 0; v < space.size(); ++v) {
    const double response = rho(space, placement, load, alpha, v, chosen[v]);
    double network = response;
    if (detail != nullptr) {
      if (alpha != 0.0) network = rho(space, placement, load, 0.0, v, chosen[v]);
      detail->per_client_response.push_back(response);
    }
    avg.add(v, response, network);
  }
  if (detail != nullptr) detail->site_load = std::move(load);
  return avg.finish(space.size(), detail);
}

Evaluation evaluate_closest(const net::LatencySpace& space,
                            const quorum::QuorumSystem& system, const Placement& placement,
                            double alpha, std::span<const double> client_demand,
                            ExecutionModel model) {
  const std::vector<double> weights = demand_shares(client_demand, space.size());
  placement.validate(space.size());
  Evaluation eval;
  eval.per_client_response.reserve(space.size());
  (void)closest_pass(space, system, placement, alpha, weights, model, &eval);
  return eval;
}

Evaluation evaluate_balanced(const net::LatencySpace& space,
                             const quorum::QuorumSystem& system, const Placement& placement,
                             double alpha, std::span<const double> client_demand,
                             ExecutionModel model) {
  const std::vector<double> weights = demand_shares(client_demand, space.size());
  placement.validate(space.size());
  Evaluation eval;
  // The balanced load model is demand-invariant: every client induces the
  // same per-element load, so any convex weighting reproduces the uniform
  // table.
  eval.site_load = site_loads_balanced(system, placement, space.size(), model);
  eval.per_client_response.reserve(space.size());
  EvalWorkspace ws;
  (void)balanced_pass(space, system, placement, eval.site_load, alpha, weights, ws, &eval);
  return eval;
}

Evaluation evaluate_explicit(const net::LatencySpace& space,
                             const quorum::QuorumSystem& system, const Placement& placement,
                             double alpha, const ExplicitStrategy& strategy,
                             std::span<const double> client_demand, ExecutionModel model) {
  const std::vector<double> weights = demand_shares(client_demand, space.size());
  placement.validate(space.size());
  strategy.validate(space.size(), system.universe_size());
  Evaluation eval;
  eval.site_load =
      site_loads_explicit(strategy, placement, space.size(), weights, model);
  eval.per_client_response.reserve(space.size());
  EvalWorkspace ws;
  WeightedAverager avg{weights};
  for (std::size_t v = 0; v < space.size(); ++v) {
    fill_element_values(space, placement, eval.site_load, alpha, v, ws.values);
    fill_element_distances(space, placement, v, ws.distances);
    double response = 0.0;
    double network = 0.0;
    const std::vector<double>& probs = strategy.probability[v];
    const quorum::QuorumTable& quorums = *strategy.quorums;
    for (std::size_t i = 0; i < quorums.size(); ++i) {
      if (probs[i] == 0.0) continue;
      double value_max = 0.0;
      double distance_max = 0.0;
      for (std::size_t u : quorums[i]) {
        value_max = std::max(value_max, ws.values[u]);
        distance_max = std::max(distance_max, ws.distances[u]);
      }
      response += probs[i] * value_max;
      network += probs[i] * distance_max;
    }
    eval.per_client_response.push_back(response);
    avg.add(v, response, network);
  }
  (void)avg.finish(space.size(), &eval);
  return eval;
}

}  // namespace qp::core
