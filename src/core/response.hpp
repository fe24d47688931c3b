// The response-time model of §4, equations (4.1) and (4.2):
//
//   rho_f(v, Q) = max_{w in f(Q)} ( d(v, w) + alpha * load_f(w) )
//   Delta_f(v)  = sum_Q p_v(Q) rho_f(v, Q)
//   objective   = avg_{v in V} Delta_f(v)
//
// with alpha = op_srv_time * client_demand (§7). Setting alpha = 0 recovers
// the pure network-delay measure used in §6.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/eval_workspace.hpp"
#include "core/placement.hpp"
#include "core/strategy.hpp"
#include "net/latency_space.hpp"
#include "quorum/quorum_system.hpp"

namespace qp::core {

/// Per-request service time of a Q/U write on the paper's testbed hardware
/// (§7): 0.007 ms. alpha = kQuWriteServiceMs * client_demand.
inline constexpr double kQuWriteServiceMs = 0.007;

struct Evaluation {
  /// avg_v Delta_f(v): the paper's objective, in milliseconds.
  double avg_response_ms = 0.0;
  /// Same average with alpha forced to 0 (pure network delay).
  double avg_network_delay_ms = 0.0;
  /// load_f(w) per site (zero off the support set).
  std::vector<double> site_load;
  /// Delta_f(v) per client.
  std::vector<double> per_client_response;
};

/// Normalizes a per-client demand vector to shares summing to 1 — the
/// weight vector every demand-aware evaluation consumes. Empty or constant
/// demand (uniform clients) returns an empty vector, which selects the
/// historical unweighted arithmetic, so uniform-demand results reproduce
/// pre-demand outputs bitwise. Throws on a size mismatch with
/// `client_count` or on negative/non-finite entries.
[[nodiscard]] std::vector<double> demand_shares(std::span<const double> client_demand,
                                                std::size_t client_count);

// The three evaluators below take `client_demand`, the raw per-client
// demand (any positive scaling, normalized through demand_shares), and
// `model`, the §8 execution model (PerElement reproduces the paper;
// Collapsed is its future-work variant). They validate the placement and
// accept any net::LatencySpace (a LatencyMatrix binds implicitly).

/// Closest access strategy (§6): each client deterministically uses its
/// minimum-network-delay quorum; the load those choices induce still enters
/// the response time through alpha. Demand shares weight both the response
/// averages and the load attribution; empty (the default) or constant
/// demand runs the historical uniform arithmetic bitwise.
[[nodiscard]] Evaluation evaluate_closest(
    const net::LatencySpace& space, const quorum::QuorumSystem& system,
    const Placement& placement, double alpha, std::span<const double> client_demand = {},
    ExecutionModel model = ExecutionModel::PerElement);

/// Balanced access strategy (§7): uniform over all quorums, evaluated
/// analytically (order statistics for Majorities, enumeration for Grid).
/// Demand shares weight the response averages only: every client draws the
/// same quorum distribution, so the load model is demand-invariant. Empty
/// (the default) or constant demand runs the historical uniform arithmetic
/// bitwise.
[[nodiscard]] Evaluation evaluate_balanced(
    const net::LatencySpace& space, const quorum::QuorumSystem& system,
    const Placement& placement, double alpha, std::span<const double> client_demand = {},
    ExecutionModel model = ExecutionModel::PerElement);

/// Arbitrary explicit per-client strategies (e.g. LP-optimized ones).
/// Demand shares weight both the response averages and the load
/// attribution; empty (the default) or constant demand runs the historical
/// uniform arithmetic bitwise.
[[nodiscard]] Evaluation evaluate_explicit(
    const net::LatencySpace& space, const quorum::QuorumSystem& system,
    const Placement& placement, double alpha, const ExplicitStrategy& strategy,
    std::span<const double> client_demand = {},
    ExecutionModel model = ExecutionModel::PerElement);

/// rho_f(v, Q) per (4.1) for one concrete quorum — shared helper.
[[nodiscard]] double rho(const net::LatencySpace& space, const Placement& placement,
                         std::span<const double> site_load, double alpha, std::size_t client,
                         const quorum::Quorum& quorum);

// The two per-client passes behind both evaluate_balanced / evaluate_closest
// and Objective::evaluate_ws: one implementation of each strategy's (4.2)
// response. `shares` are normalized demand shares (empty = uniform 1/|V|).
// Neither validates the placement or the share count. Each returns
// sum_v w_v Delta_f(v); a non-null `detail` also receives the per-client
// responses and both averages.

/// Balanced pass for precomputed site loads (unread when alpha == 0 or
/// `site_load` is empty: the pass then reads distances only, with no load
/// table at all). Allocation-free when `detail` is null.
[[nodiscard]] double balanced_pass(const net::LatencySpace& space,
                                   const quorum::QuorumSystem& system,
                                   const Placement& placement,
                                   std::span<const double> site_load, double alpha,
                                   std::span<const double> shares, EvalWorkspace& workspace,
                                   Evaluation* detail);

/// Closest pass: closest_quorums (one best_quorum call per client) feeds
/// both the induced loads (site_loads_chosen; written to detail->site_load
/// when `detail` is non-null) and each client's rho.
[[nodiscard]] double closest_pass(const net::LatencySpace& space,
                                  const quorum::QuorumSystem& system,
                                  const Placement& placement, double alpha,
                                  std::span<const double> shares, ExecutionModel model,
                                  Evaluation* detail);

}  // namespace qp::core
