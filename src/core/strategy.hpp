// Client access strategies (§4 "Load", §4.2, §7).
//
// Three strategy families appear in the paper:
//   * closest  — p_v puts probability 1 on the quorum with minimum network
//                delay for v (§6);
//   * balanced — p_v is uniform over all quorums for every client (§7);
//   * LP-optimized — per-client distributions solving LP (4.3)-(4.6): they
//                minimize average network delay subject to per-site capacity
//                constraints on the induced load.
// Every entry point reads latencies through net::LatencySpace (a dense
// LatencyMatrix or an implicit LatencyEmbedding).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "core/placement.hpp"
#include "lp/simplex.hpp"
#include "net/latency_space.hpp"
#include "quorum/quorum_system.hpp"

namespace qp::core {

/// Per-client distributions over a system's shared quorum table.
struct ExplicitStrategy {
  std::shared_ptr<const quorum::QuorumTable> quorums;
  /// probability[v][i] = p_v((*quorums)[i]); rows sum to 1.
  std::vector<std::vector<double>> probability;

  /// Throws unless the table is set, its quorums are non-empty and in range,
  /// shapes are consistent, probabilities are in [0,1], and every row sums
  /// to 1 within `tolerance`.
  void validate(std::size_t client_count, std::size_t universe_size,
                double tolerance = 1e-6) const;

  /// The average strategy avg({p_v}) of §4.2 — one distribution over quorums.
  [[nodiscard]] std::vector<double> average_distribution() const;
};

/// The explicit strategy in which all `client_count` clients use the same
/// `distribution` over `quorums` (the common strategy p of §4.1.2 / §4.2).
[[nodiscard]] ExplicitStrategy common_strategy(
    std::shared_ptr<const quorum::QuorumTable> quorums, std::span<const double> distribution,
    std::size_t client_count);

/// The closest quorum (minimum network delay, QuorumSystem::best_quorum
/// ties included) for every client: one best_quorum call per client.
[[nodiscard]] std::vector<quorum::Quorum> closest_quorums(const net::LatencySpace& space,
                                                          const quorum::QuorumSystem& system,
                                                          const Placement& placement);

/// load_p(u) for a distribution p over an explicit quorum list:
/// load(u) = sum over quorums containing u of p(Q).
[[nodiscard]] std::vector<double> element_loads(const quorum::QuorumTable& quorums,
                                                std::span<const double> distribution);

/// How a site hosting several universe elements charges a quorum access
/// that touches more than one of them (§8):
///   PerElement — the paper's model: one execution per hosted element in
///                the quorum (load adds up per element);
///   Collapsed  — the paper's future-work variant: one execution per
///                touching request, however many colocated elements it hits.
/// The two coincide on one-to-one placements.
enum class ExecutionModel { PerElement, Collapsed };

/// load_f(w) = sum_v w_v load_{v,f}(w) for the three strategy kinds. Vectors
/// are indexed by site; sites outside the support set carry load 0.
/// `client_weights` are normalized demand shares (see core::demand_shares in
/// response.hpp): client v's quorum access is charged with weight w_v.

/// Closest strategy loads: site_loads_chosen over closest_quorums. An empty
/// `client_weights` (the default) runs the historical uniform arithmetic
/// bitwise: each client charges 1/|V|.
[[nodiscard]] std::vector<double> site_loads_closest(
    const net::LatencySpace& space, const quorum::QuorumSystem& system,
    const Placement& placement, std::span<const double> client_weights = {},
    ExecutionModel model = ExecutionModel::PerElement);
/// Loads of one deterministic quorum choice per client (`chosen[v]`, e.g.
/// closest_quorums), each charged with w_v — 1/|V| for empty weights.
[[nodiscard]] std::vector<double> site_loads_chosen(
    std::span<const quorum::Quorum> chosen, const Placement& placement,
    std::size_t site_count, std::span<const double> client_weights, ExecutionModel model);
/// Balanced strategy loads. There are no weights: every client induces the
/// identical per-element load, so any convex demand weighting leaves it
/// unchanged.
[[nodiscard]] std::vector<double> site_loads_balanced(
    const quorum::QuorumSystem& system, const Placement& placement, std::size_t site_count,
    ExecutionModel model = ExecutionModel::PerElement);
/// Explicit strategy loads. An empty `client_weights` (the default) runs the
/// historical uniform arithmetic bitwise: per-client loads are accumulated,
/// then divided by |V|.
[[nodiscard]] std::vector<double> site_loads_explicit(
    const ExplicitStrategy& strategy, const Placement& placement, std::size_t site_count,
    std::span<const double> client_weights = {},
    ExecutionModel model = ExecutionModel::PerElement);

struct StrategyLpResult {
  lp::SolveStatus status = lp::SolveStatus::Infeasible;
  ExplicitStrategy strategy;          // Populated when status == Optimal.
  double avg_network_delay = 0.0;     // LP objective (4.3).
  std::size_t lp_iterations = 0;
  /// Optimal basis, exported whenever status == Optimal: one entry per row
  /// of the aggregated LP, |support| + |V| + |quorums| rows (see
  /// optimize_access_strategy). Feed it back through
  /// options.simplex.initial_basis to warm-start the next solve of an
  /// identically-shaped LP (same placement support set, same quorum system).
  lp::Basis basis;
};

struct StrategyLpOptions {
  /// Solver knobs; simplex.initial_basis warm-starts the solve.
  lp::SimplexOptions simplex{};
};

/// Solves LP (4.3)-(4.6): minimize the average expected network delay over
/// per-client access strategies subject to avg load <= cap on every support
/// site. `capacities` is indexed by site. Client v contributes weight w_v
/// (its demand share, see core::demand_shares) to the delay objective AND to
/// the capacity-row load coefficients, so a hot client's quorum choices
/// consume proportionally more of every touched site's capacity. An empty
/// `client_weights` (the default) runs the historical uniform arithmetic
/// (w_v = 1/|V|) bitwise. Returns Infeasible status when the capacities
/// cannot carry the workload (e.g. a negative cap); throws
/// std::invalid_argument on a non-finite capacity.
///
/// One engine solves every instance: the sparse revised simplex
/// (lp/revised_simplex) on the LP in aggregated form, with the same
/// feasible set and objective. Variables: p_v(Q_i) at v * m + i (m
/// quorums), then one usage variable z_i at |V| * m + i. Rows, in order:
///   * one capacity row per support site w:  sum_i count(Q_i, w) z_i <= cap_w,
///     where count(Q_i, w) is the number of Q_i's elements placed on w;
///   * one distribution row per client v:    sum_i p_v(Q_i) = 1;
///   * one usage row per quorum Q_i:         sum_v w_v p_v(Q_i) - z_i = 0.
/// So each client column has two nonzeros, and only the m usage columns
/// reach the capacity rows. Without a caller basis the solve is
/// crash-started: each distribution row gets its client's closest quorum
/// (minimum delay, lowest index on ties), each usage row its z_i and each
/// capacity row its slack. That basis is triangular, so it always factors,
/// and the solver's composite phase 1 repairs the caps the closest choices
/// overload. When no cap can bind, the crash is already optimal and the
/// solve stops after one pricing pass (lp_iterations == 1), each client on
/// its lowest-index minimum-delay quorum. A caller basis replaces the crash;
/// only it counts toward the lp.strategy.warm_start_hit / _miss counters.
[[nodiscard]] StrategyLpResult optimize_access_strategy(
    const net::LatencySpace& space, const quorum::QuorumSystem& system,
    const Placement& placement, std::span<const double> capacities,
    std::span<const double> client_weights = {}, const StrategyLpOptions& options = {});

}  // namespace qp::core
