// Pluggable, demand-aware placement-search objectives.
//
// Every search layer (DeltaEvaluator, local_search, best_placement, the
// iterative alternation) minimizes a demand-weighted average over clients of
// the response time of the client's quorum access
//
//   J(f) = sum_v w_v * R_f(v),          w_v = demand_v / sum demand
//   x_f(v, u) = d(v, f(u)) + alpha * load_f(f(u))            (§4, eq. 4.1)
//
// where the access strategy decides both R_f(v) and the load model:
//   * Balanced (§7/§8): R_f(v) = E_uniform-Q [ max_{u in Q} x_f(v, u) ] and
//     load_f comes from the uniform per-element loads (demand-independent:
//     every client draws the same quorum distribution, so the weighted
//     average of identical per-client loads is the unweighted one);
//   * Closest (§6): R_f(v) = rho_f(v, Q_v*) for the argmin-network-delay
//     quorum Q_v* of client v, and load_f(w) = sum_v w_v |{u in Q_v* :
//     f(u) = w}| depends on the placement through every client's choice.
// An empty weight vector means uniform clients (w_v = 1/|V|), evaluated by
// the exact historical arithmetic so pre-demand results reproduce bitwise.
//
// The Objective interface captures the three axes a concrete objective
// chooses: the alpha coefficient, the per-client demand weights, and the
// access strategy (which implies the per-site load attribution). Three
// implementations cover the paper:
//   * NetworkDelayObjective    — alpha = 0, the §6 pure-network-delay
//                                measure (balanced strategy);
//   * LoadAwareObjective       — alpha = op_srv_time * demand > 0, the §7
//                                balanced-strategy response time;
//   * ClosestStrategyObjective — the §6 closest strategy: per-client argmin
//                                quorums plus the load they induce.
// Search code takes a `const Objective&` and never special-cases any axis.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "core/eval_workspace.hpp"
#include "core/placement.hpp"
#include "core/strategy.hpp"
#include "net/latency_space.hpp"
#include "quorum/quorum_system.hpp"

namespace qp::core {

/// How an objective's clients pick quorums (and hence how load attaches to
/// sites): Balanced = uniform over all quorums (§7), Closest = each client's
/// argmin-network-delay quorum (§6).
enum class AccessStrategy { Balanced, Closest };

class Objective {
 public:
  virtual ~Objective() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Coefficient on the load term of (4.1); 0 means pure network delay.
  [[nodiscard]] virtual double alpha() const noexcept = 0;

  /// Strategy governing the per-client response and the load attribution.
  [[nodiscard]] virtual AccessStrategy access_strategy() const noexcept {
    return AccessStrategy::Balanced;
  }

  /// Whether the incremental DeltaEvaluator models this objective exactly.
  /// Objectives whose value is not the (4.1) closest/balanced arithmetic —
  /// e.g. expectations over failure sets (FailureAwareObjective) — return
  /// false; local_search_placement then re-evaluates every candidate in
  /// full and DeltaEvaluator refuses construction.
  [[nodiscard]] virtual bool supports_delta() const noexcept { return true; }

  /// Per-client demand shares w_v (normalized to sum 1); empty = uniform
  /// clients. A constant demand vector is collapsed to empty at
  /// construction, so uniform-demand evaluations reproduce the historical
  /// unweighted arithmetic exactly.
  [[nodiscard]] std::span<const double> client_weights() const noexcept { return weights_; }

  /// Per-element load contributions lambda_u under the balanced strategy:
  /// the load element u drags to whichever site hosts it, so
  /// load_f(w) = sum_{f(u)=w} lambda_u. An empty span means all-zero (the
  /// network-delay case, and the closest strategy, whose load is placement-
  /// dependent and computed by site_loads instead). Spans must stay valid
  /// while the system does (concrete objectives return the system's memoized
  /// table, see QuorumSystem::uniform_load_cached).
  [[nodiscard]] virtual std::span<const double> element_loads(
      const quorum::QuorumSystem& system) const = 0;

  /// load_f(w) per site under this objective's load model, dispatched on
  /// access_strategy(): Balanced accumulates element_loads onto hosting
  /// sites (all zeros when alpha() == 0 or element_loads is empty); Closest
  /// returns the demand-weighted loads of every client's argmin quorum
  /// (site_loads_closest).
  [[nodiscard]] std::vector<double> site_loads(const net::LatencySpace& space,
                                                const quorum::QuorumSystem& system,
                                                const Placement& placement) const;

  /// Naive full evaluation of J(f): the reference the incremental engine is
  /// checked against. Unchecked: the caller validates the placement (see
  /// evaluate). The default dispatches on access_strategy() to the shared
  /// (4.2) passes in core/response.hpp — balanced_pass (allocation-free in
  /// steady state via `workspace` when alpha() == 0) or closest_pass — so it
  /// equals evaluate_balanced / evaluate_closest. Objectives that are not
  /// the (4.1) arithmetic (FailureAwareObjective) override.
  [[nodiscard]] virtual double evaluate_ws(const net::LatencySpace& space,
                                           const quorum::QuorumSystem& system,
                                           const Placement& placement,
                                           EvalWorkspace& workspace) const;

  /// Validates the placement against the space (std::out_of_range for a
  /// site past the space, std::invalid_argument when empty), then runs
  /// evaluate_ws with a local workspace.
  [[nodiscard]] double evaluate(const net::LatencySpace& space,
                                const quorum::QuorumSystem& system,
                                const Placement& placement) const;

 protected:
  Objective() = default;
  /// Normalizes `client_demand` to shares; empty or constant demand (and a
  /// zero-sum vector) collapses to the uniform (empty) representation.
  /// Throws on negative or non-finite entries.
  explicit Objective(std::span<const double> client_demand);

 private:
  std::vector<double> weights_;  // Demand shares; empty = uniform clients.
};

/// alpha = 0: J(f) = weighted avg_v E_uniform[max d(v, f(u))] — the §6
/// network delay, identical to evaluate_balanced(..., 0.0).avg_response_ms.
class NetworkDelayObjective final : public Objective {
 public:
  NetworkDelayObjective() = default;
  explicit NetworkDelayObjective(std::span<const double> client_demand)
      : Objective(client_demand) {}

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] double alpha() const noexcept override { return 0.0; }
  [[nodiscard]] std::span<const double> element_loads(
      const quorum::QuorumSystem&) const override {
    return {};
  }
};

/// alpha > 0: the §7 response-time objective under the balanced strategy;
/// matches evaluate_balanced(...).avg_response_ms for per-element execution
/// (demand-weighted when constructed from a demand vector).
class LoadAwareObjective final : public Objective {
 public:
  /// Requires alpha >= 0 and finite. `client_demand` is the raw per-client
  /// demand; empty (the default) or constant demand means uniform clients.
  explicit LoadAwareObjective(double alpha, std::span<const double> client_demand = {});

  /// alpha = kQuWriteServiceMs * client_demand (§7's parameterization).
  [[nodiscard]] static LoadAwareObjective for_demand(double client_demand);
  /// Demand-weighted: alpha from the mean demand, weights from the vector.
  [[nodiscard]] static LoadAwareObjective for_demand(std::span<const double> client_demand);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] double alpha() const noexcept override { return alpha_; }
  [[nodiscard]] std::span<const double> element_loads(
      const quorum::QuorumSystem& system) const override;

 private:
  double alpha_;
};

/// The §6 closest strategy: each client deterministically reads from its
/// minimum-network-delay quorum (QuorumSystem::best_quorum ties included),
/// the quorum choices induce the per-site loads, and the response is
/// rho_f(v, Q_v*) of (4.1). Matches evaluate_closest(...).avg_response_ms
/// (per-element execution), demand-weighted when built from a demand vector.
class ClosestStrategyObjective final : public Objective {
 public:
  /// Requires alpha >= 0 and finite. `client_demand` is the raw per-client
  /// demand; empty (the default) or constant demand means uniform clients.
  explicit ClosestStrategyObjective(double alpha,
                                    std::span<const double> client_demand = {});

  [[nodiscard]] static ClosestStrategyObjective for_demand(double client_demand);
  [[nodiscard]] static ClosestStrategyObjective for_demand(
      std::span<const double> client_demand);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] double alpha() const noexcept override { return alpha_; }
  [[nodiscard]] AccessStrategy access_strategy() const noexcept override {
    return AccessStrategy::Closest;
  }
  [[nodiscard]] std::span<const double> element_loads(
      const quorum::QuorumSystem&) const override {
    return {};  // Placement-dependent; see site_loads.
  }

 private:
  double alpha_;
};

/// Program-lifetime NetworkDelayObjective instance: the default objective of
/// every search entry point.
[[nodiscard]] const Objective& network_delay_objective() noexcept;

}  // namespace qp::core
