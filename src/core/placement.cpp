#include "core/placement.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "common/thread_pool.hpp"
#include "core/eval_workspace.hpp"
#include "core/objective.hpp"
#include "quorum/grid.hpp"

namespace qp::core {

std::vector<std::size_t> Placement::support_set() const {
  std::vector<std::size_t> support = site_of;
  std::sort(support.begin(), support.end());
  support.erase(std::unique(support.begin(), support.end()), support.end());
  return support;
}

bool Placement::one_to_one() const { return support_set().size() == site_of.size(); }

void Placement::validate(std::size_t site_count) const {
  if (site_of.empty()) throw std::invalid_argument{"Placement: empty"};
  for (std::size_t site : site_of) {
    if (site >= site_count) throw std::out_of_range{"Placement: site out of range"};
  }
}

Placement majority_ball_placement(const net::LatencySpace& space,
                                  std::size_t universe_size, std::size_t v0) {
  if (universe_size == 0 || universe_size > space.size()) {
    throw std::invalid_argument{"majority_ball_placement: bad universe size"};
  }
  return Placement{net::ball(space, v0, universe_size)};
}

Placement grid_placement_for_client(const net::LatencySpace& space, std::size_t side,
                                    std::size_t v0) {
  const std::size_t n = side * side;
  if (side == 0 || n > space.size()) {
    throw std::invalid_argument{"grid_placement_for_client: bad grid side"};
  }
  // Ball nodes ordered by DECREASING distance from v0: rank 0 is farthest.
  std::vector<std::size_t> by_distance = net::ball(space, v0, n);
  std::reverse(by_distance.begin(), by_distance.end());

  // Inductive square construction (§4.1.1): the largest l^2 distances
  // occupy the top-left l x l square; growing to (l+1) x (l+1) appends the
  // next l ranks down column l and the following l+1 ranks across row l.
  // The nearest nodes therefore land on the last row/column, giving v0 one
  // very cheap quorum.
  std::vector<std::size_t> rank_of_cell(n, 0);
  std::size_t next_rank = 0;
  rank_of_cell[0] = next_rank++;  // Cell (0, 0).
  for (std::size_t l = 1; l < side; ++l) {
    for (std::size_t r = 0; r < l; ++r) rank_of_cell[r * side + l] = next_rank++;
    for (std::size_t c = 0; c <= l; ++c) rank_of_cell[l * side + c] = next_rank++;
  }

  Placement placement;
  placement.site_of.resize(n);
  for (std::size_t cell = 0; cell < n; ++cell) {
    placement.site_of[cell] = by_distance[rank_of_cell[cell]];
  }
  return placement;
}

Placement singleton_placement(const net::LatencySpace& space, std::size_t universe_size) {
  if (universe_size == 0) throw std::invalid_argument{"singleton_placement: empty universe"};
  const std::size_t median = net::median_site(space);
  return Placement{std::vector<std::size_t>(universe_size, median)};
}

PlacementSearchResult best_placement(
    const net::LatencySpace& space, const quorum::QuorumSystem& system,
    const std::function<Placement(std::size_t v0)>& build_for_client,
    std::span<const std::size_t> candidates, const Objective& objective) {
  std::vector<std::size_t> all;
  if (candidates.empty()) {
    all.resize(space.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    candidates = all;
  }
  // Build and evaluate every candidate placement in parallel (the builders
  // are pure functions of v0), then reduce serially in candidate order so the
  // winner — including tie-breaking on equal delays — is identical to the
  // historical serial scan for any thread count. Only the delays are kept
  // (O(candidates) memory); the winning placement is rebuilt once at the end,
  // which purity makes exact.
  std::vector<double> delays(candidates.size());
  common::global_thread_pool().parallel_for(
      0, candidates.size(), [&](std::size_t i) {
        static thread_local EvalWorkspace workspace;
        const Placement placement = build_for_client(candidates[i]);
        placement.validate(space.size());
        delays[i] = objective.evaluate_ws(space, system, placement, workspace);
      });

  std::size_t best_index = candidates.size();
  double best_delay = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (delays[i] < best_delay) {
      best_delay = delays[i];
      best_index = i;
    }
  }
  if (best_index == candidates.size() || !std::isfinite(best_delay)) {
    throw std::invalid_argument{"best_placement: no candidate clients"};
  }
  PlacementSearchResult best;
  best.avg_network_delay = best_delay;
  best.anchor_client = candidates[best_index];
  best.placement = build_for_client(candidates[best_index]);
  return best;
}

PlacementSearchResult best_majority_placement(const net::LatencySpace& space,
                                              const quorum::QuorumSystem& majority,
                                              std::span<const std::size_t> candidates) {
  return best_placement(
      space, majority,
      [&](std::size_t v0) {
        return majority_ball_placement(space, majority.universe_size(), v0);
      },
      candidates);
}

PlacementSearchResult best_grid_placement(const net::LatencySpace& space,
                                          std::size_t side,
                                          std::span<const std::size_t> candidates) {
  const quorum::GridQuorum grid{side};
  return best_placement(
      space, grid,
      [&](std::size_t v0) { return grid_placement_for_client(space, side, v0); },
      candidates);
}

}  // namespace qp::core
