// Quorum placements f : U -> V (§4) and the previously-known one-to-one
// placement algorithms (§4.1.1): Majority ball placement, the Grid inductive
// construction, the singleton/median placement, and the best-single-client
// outer loop that turns a single-client-optimal construction into a
// constant-factor approximation for all clients.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "net/latency_space.hpp"
#include "quorum/quorum_system.hpp"

namespace qp::core {

class Objective;  // core/objective.hpp (which includes this header).

/// A placement maps universe element u to the site hosting it. Many-to-one
/// mappings are allowed (multiple elements on one site).
struct Placement {
  std::vector<std::size_t> site_of;

  [[nodiscard]] std::size_t universe_size() const noexcept { return site_of.size(); }

  /// Sorted, de-duplicated list of sites hosting at least one element
  /// (the support set f(U) of §4).
  [[nodiscard]] std::vector<std::size_t> support_set() const;

  [[nodiscard]] bool one_to_one() const;

  /// Throws unless every site index is < site_count.
  void validate(std::size_t site_count) const;
};

/// Majority placement for a single client v0: an arbitrary one-to-one map
/// onto the ball B(v0, n) (all such maps have equal delay for v0; §4.1.1).
[[nodiscard]] Placement majority_ball_placement(const net::LatencySpace& space,
                                                std::size_t universe_size, std::size_t v0);

/// Grid placement for a single client v0 (§4.1.1): sort the ball's distances
/// in decreasing order and fill the grid in inductively growing squares, so
/// the closest nodes land on the last row and column (one cheap quorum).
[[nodiscard]] Placement grid_placement_for_client(const net::LatencySpace& space,
                                                  std::size_t side, std::size_t v0);

/// All universe elements on the graph median (Lin's 2-approximation).
[[nodiscard]] Placement singleton_placement(const net::LatencySpace& space,
                                            std::size_t universe_size = 1);

struct PlacementSearchResult {
  Placement placement;
  std::size_t anchor_client = 0;      // The v0 whose placement won.
  /// Objective value of the winner: the uniform-strategy network delay for
  /// the default objective, the load-aware response time otherwise.
  double avg_network_delay = 0.0;
};

/// Defined in core/objective.hpp; declared here for the default below.
[[nodiscard]] const Objective& network_delay_objective() noexcept;

/// §4.1.1 outer loop: builds the single-client placement for every candidate
/// v0 (all sites when `candidates` is empty), scores each under `objective`
/// (the uniform-strategy network delay by default, or e.g. the load-aware
/// response time), and returns the minimizer. Candidates are evaluated on
/// the shared thread pool, so `build_for_client` must be thread-safe (a pure
/// function of v0, as all the built-in builders are); the reduction is
/// serial in candidate order, so the result is identical to a serial scan.
[[nodiscard]] PlacementSearchResult best_placement(
    const net::LatencySpace& space, const quorum::QuorumSystem& system,
    const std::function<Placement(std::size_t v0)>& build_for_client,
    std::span<const std::size_t> candidates = {},
    const Objective& objective = network_delay_objective());

/// Convenience wrappers running best_placement with the matching builder.
[[nodiscard]] PlacementSearchResult best_majority_placement(
    const net::LatencySpace& space, const quorum::QuorumSystem& majority,
    std::span<const std::size_t> candidates = {});
[[nodiscard]] PlacementSearchResult best_grid_placement(
    const net::LatencySpace& space, std::size_t side,
    std::span<const std::size_t> candidates = {});

}  // namespace qp::core
