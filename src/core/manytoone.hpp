// Many-to-one quorum placement (§4.1.2): the "almost capacity-respecting"
// algorithm of Gupta et al., reconstructed as
//   1. an LP relaxation of the single-client placement problem
//      (fractional assignment x_uw, per-quorum delay bounds t_Q), solved on
//      the sparse revised simplex (lp/revised_simplex),
//   2. Lin–Vitter filtering: drop fractional assignments to nodes farther
//      than (1+eps) times the element's fractional average distance and
//      renormalize, and
//   3. Shmoys–Tardos generalized-assignment rounding: split each node into
//      ceil(total fractional mass) unit slots, order items by decreasing
//      load, and find a min-cost perfect matching of elements to slots.
// The result places every element integrally while exceeding capacities by
// at most a constant factor (reported, not hidden). Latencies are read
// through net::LatencySpace: each anchor gathers its row d(v0, .) once.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/placement.hpp"
#include "lp/simplex.hpp"
#include "net/latency_space.hpp"
#include "quorum/quorum_system.hpp"

namespace qp::core {

struct ManyToOneOptions {
  /// Lin–Vitter filtering parameter (the paper's procedure with eps = 1
  /// keeps assignments within twice the fractional average distance).
  double epsilon = 1.0;
  /// Placement-LP solver knobs; simplex.initial_basis seeds the first
  /// anchor's solve (later anchors of best_many_to_one_placement start from
  /// their predecessor's optimal basis).
  lp::SimplexOptions simplex{};
};

struct ManyToOneResult {
  lp::SolveStatus status = lp::SolveStatus::Infeasible;
  Placement placement;                 // Populated when status == Optimal.
  /// Optimum of the fractional delay LP (a lower bound on the single-client
  /// expected delay of any capacity-respecting placement).
  double lp_delay_bound = 0.0;
  /// max over support sites of load_f(w)/cap(w); values > 1 quantify the
  /// algorithm's bounded capacity violation.
  double max_capacity_violation = 0.0;
};

/// Runs the three-step pipeline above for anchor client `v0`.
/// `quorum_distribution` is the common access strategy p, aligned with
/// system.enumerate_quorums() (quorum::kEnumerationLimit, the strategy LP's
/// list too); it must sum to 1.
/// `capacities` is indexed by site and must be positive wherever load could
/// land; a non-finite entry throws std::invalid_argument.
[[nodiscard]] ManyToOneResult many_to_one_placement(
    const net::LatencySpace& space, const quorum::QuorumSystem& system,
    std::span<const double> quorum_distribution, std::span<const double> capacities,
    std::size_t v0, const ManyToOneOptions& options = {});

struct ManyToOneSearchResult {
  ManyToOneResult best;
  std::size_t anchor_client = 0;
  /// avg_v sum_i p_i max_{u in Q_i} d(v, f(u)) of the winning placement.
  double avg_network_delay = 0.0;
};

/// §4.1.2 outer loop: runs many_to_one_placement for every candidate anchor
/// (all sites when empty) and keeps the placement with the lowest average
/// network delay under the given quorum distribution. The anchors' LPs
/// differ only in the delay coefficients d(v0, .), so each one is
/// warm-started from the previous anchor's optimal basis; the bounds match
/// cold solves to solver tolerance, though a tie between alternate LP
/// optima may round to a different placement. Placements are scored by
/// evaluate_explicit at alpha 0 under common_strategy(quorum_distribution).
[[nodiscard]] ManyToOneSearchResult best_many_to_one_placement(
    const net::LatencySpace& space, const quorum::QuorumSystem& system,
    std::span<const double> quorum_distribution, std::span<const double> capacities,
    std::span<const std::size_t> candidates = {}, const ManyToOneOptions& options = {});

}  // namespace qp::core
