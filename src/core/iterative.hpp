// The iterative algorithm of §4.2: alternate the many-to-one placement
// (phase 1, with the average of the current per-client strategies) and the
// access-strategy LP (phase 2, with capacities pinned to the loads the new
// placement induces, so delay can only improve while loads are preserved).
// Halts when an iteration fails to reduce the expected response time by
// more than 1e-9 ms and returns the previous iteration's placement and
// strategies. Both phases and every measurement read latencies through
// net::LatencySpace.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/objective.hpp"
#include "core/placement.hpp"
#include "core/strategy.hpp"
#include "net/latency_space.hpp"
#include "quorum/quorum_system.hpp"

namespace qp::core {

struct IterativeOptions {
  std::size_t max_iterations = 5;
  /// Anchor clients v0 tried by the placement search each iteration;
  /// empty = all sites (the paper's choice; slower).
  std::vector<std::size_t> anchor_candidates;
  /// Seed each round's phase-2 LP from the previous round's optimal basis
  /// (applied when the placement support set — and so the LP shape —
  /// matches the round that produced the basis). The revised
  /// solver re-establishes feasibility in place, so warm and cold runs reach
  /// the same optimum; disable to pin cold-start iteration counts.
  bool warm_start = true;
};

/// Per-iteration measurements, recorded so Figure 8.9 can show the gain of
/// each phase separately.
struct IterationRecord {
  std::size_t iteration = 0;
  double response_after_placement = 0.0;  // Evaluated with last round's strategies.
  double network_after_placement = 0.0;
  double response_after_strategy = 0.0;   // Evaluated with the fresh LP strategies.
  double network_after_strategy = 0.0;
  double max_capacity_violation = 0.0;
  bool accepted = false;
  /// Pricing passes the phase-2 LP took (lp::SolveResult::iterations) and
  /// whether it was warm-started — fig8_9 and the bench report cold-vs-warm.
  std::size_t lp_iterations = 0;
  bool lp_warm_started = false;
};

struct IterativeResult {
  Placement placement;
  ExplicitStrategy strategy;
  double avg_response = 0.0;
  double avg_network_delay = 0.0;
  std::vector<IterationRecord> history;
};

/// Runs the alternation starting from the uniform access strategy. The
/// objective supplies the response-model alpha and the per-client demand
/// weights, which enter the halting criterion, the reported measurements,
/// AND the phase-2 LPs (demand-weighted delay objective and capacity-row
/// load coefficients — uniform-demand runs reproduce the unweighted (4.3)
/// arithmetic bitwise); `capacities` is the cap0 vector of §4.2. Throws
/// std::runtime_error if even the first iteration fails to produce a
/// feasible placement. Only objective.alpha() and client_weights() are
/// read: pass LoadAwareObjective{alpha} (alpha 0 included) or
/// network_delay_objective().
[[nodiscard]] IterativeResult iterative_placement(const net::LatencySpace& space,
                                                  const quorum::QuorumSystem& system,
                                                  std::span<const double> capacities,
                                                  const Objective& objective,
                                                  const IterativeOptions& options = {});

}  // namespace qp::core
