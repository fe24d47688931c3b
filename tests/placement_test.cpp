#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "core/eval_workspace.hpp"
#include "core/objective.hpp"
#include "core/placement.hpp"
#include "net/synthetic.hpp"
#include "quorum/grid.hpp"
#include "quorum/majority.hpp"
#include "quorum/singleton.hpp"

namespace qp::core {
namespace {

using net::LatencyMatrix;

// ---------------------------------------------------------- Placement type

TEST(Placement, SupportSetAndOneToOne) {
  const Placement p{{3, 1, 3, 2}};
  EXPECT_EQ(p.support_set(), (std::vector<std::size_t>{1, 2, 3}));
  EXPECT_FALSE(p.one_to_one());
  const Placement q{{0, 2, 1}};
  EXPECT_TRUE(q.one_to_one());
}

TEST(Placement, Validation) {
  const Placement p{{0, 5}};
  EXPECT_THROW(p.validate(3), std::out_of_range);
  EXPECT_NO_THROW(p.validate(6));
  const Placement empty{};
  EXPECT_THROW(empty.validate(3), std::invalid_argument);
}

TEST(Placement, ElementDistances) {
  const LatencyMatrix m{{{0.0, 10.0, 20.0}, {10.0, 0.0, 5.0}, {20.0, 5.0, 0.0}}};
  const Placement p{{2, 0}};
  std::vector<double> out;
  fill_element_distances(m, p, 1, out);
  EXPECT_EQ(out, (std::vector<double>{5.0, 10.0}));
}

// ------------------------------------------------------------ Majority ball

TEST(MajorityBall, UsesClosestNodes) {
  const LatencyMatrix m = net::small_synth(12, 4);
  const Placement p = majority_ball_placement(m, 5, 3);
  EXPECT_EQ(p.universe_size(), 5u);
  EXPECT_TRUE(p.one_to_one());
  EXPECT_EQ(p.site_of, net::ball(m, 3, 5));
  // v0 itself hosts an element (distance 0 is minimal).
  EXPECT_NE(std::find(p.site_of.begin(), p.site_of.end(), 3u), p.site_of.end());
}

TEST(MajorityBall, RejectsOversizedUniverse) {
  const LatencyMatrix m = net::small_synth(4, 4);
  EXPECT_THROW((void)majority_ball_placement(m, 5, 0), std::invalid_argument);
  EXPECT_THROW((void)majority_ball_placement(m, 0, 0), std::invalid_argument);
}

// For a single client, the ball placement minimizes the uniform-strategy
// expected delay among ALL one-to-one placements (exhaustively checked).
TEST(MajorityBall, SingleClientOptimalityBruteForce) {
  const LatencyMatrix m = net::small_synth(7, 11);
  const quorum::MajorityQuorum system{3, 2};
  const std::size_t v0 = 2;
  const Placement ball = majority_ball_placement(m, 3, v0);

  const auto delay_for = [&](const Placement& p) {
    std::vector<double> values;
    fill_element_distances(m, p, v0, values);
    return system.expected_max_uniform(values);
  };
  const double ball_delay = delay_for(ball);

  // All injective placements of 3 elements onto 7 sites.
  std::vector<std::size_t> sites(m.size());
  std::iota(sites.begin(), sites.end(), std::size_t{0});
  for (std::size_t a : sites) {
    for (std::size_t b : sites) {
      for (std::size_t c : sites) {
        if (a == b || b == c || a == c) continue;
        EXPECT_GE(delay_for(Placement{{a, b, c}}) + 1e-9, ball_delay);
      }
    }
  }
}

// --------------------------------------------------------------- Grid ctor

TEST(GridPlacement, IsOneToOneOntoBall) {
  const LatencyMatrix m = net::small_synth(12, 21);
  const Placement p = grid_placement_for_client(m, 3, 4);
  EXPECT_EQ(p.universe_size(), 9u);
  EXPECT_TRUE(p.one_to_one());
  auto support = p.support_set();
  auto ball = net::ball(m, 4, 9);
  std::sort(ball.begin(), ball.end());
  EXPECT_EQ(support, ball);
}

TEST(GridPlacement, FarthestNodeOnTopLeft) {
  const LatencyMatrix m = net::small_synth(10, 5);
  const std::size_t v0 = 1;
  const Placement p = grid_placement_for_client(m, 3, v0);
  // Cell (0,0) hosts the farthest node of the ball.
  const auto ball = net::ball(m, v0, 9);
  EXPECT_EQ(p.site_of[0], ball.back());
}

// The paper's inductive construction is optimal for a single client under
// the uniform strategy; verify for k = 2 against all placements of the ball.
TEST(GridPlacement, SingleClientOptimalityBruteForceK2) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    const LatencyMatrix m = net::small_synth(6, seed);
    const quorum::GridQuorum system{2};
    const std::size_t v0 = 0;
    const Placement constructed = grid_placement_for_client(m, 2, v0);
    const auto delay_for = [&](const Placement& p) {
      std::vector<double> values;
      fill_element_distances(m, p, v0, values);
      return system.expected_max_uniform(values);
    };
    const double constructed_delay = delay_for(constructed);

    // All one-to-one placements of the same 4 ball nodes onto the 4 cells.
    std::vector<std::size_t> ball = net::ball(m, v0, 4);
    std::sort(ball.begin(), ball.end());
    do {
      EXPECT_GE(delay_for(Placement{ball}) + 1e-9, constructed_delay) << "seed=" << seed;
    } while (std::next_permutation(ball.begin(), ball.end()));
  }
}

TEST(GridPlacement, RejectsOversizedGrid) {
  const LatencyMatrix m = net::small_synth(8, 4);
  EXPECT_THROW((void)grid_placement_for_client(m, 3, 0), std::invalid_argument);
  EXPECT_THROW((void)grid_placement_for_client(m, 0, 0), std::invalid_argument);
}

// ---------------------------------------------------------------- Singleton

TEST(SingletonPlacement, UsesMedian) {
  const LatencyMatrix m{{{0.0, 1.0, 2.0}, {1.0, 0.0, 1.0}, {2.0, 1.0, 0.0}}};
  const Placement p = singleton_placement(m);
  EXPECT_EQ(p.site_of, (std::vector<std::size_t>{1}));
  const Placement many = singleton_placement(m, 4);
  EXPECT_EQ(many.site_of, (std::vector<std::size_t>{1, 1, 1, 1}));
}

// Lin's theorem: the singleton's average delay is within 2x of any
// placement of any quorum system (spot-check against grid placements).
TEST(SingletonPlacement, TwoApproximationHolds) {
  const LatencyMatrix m = net::small_synth(16, 9);
  const quorum::SingletonQuorum single;
  const Placement median = singleton_placement(m);
  const double singleton_delay = network_delay_objective().evaluate(m, single, median);

  const quorum::GridQuorum grid{3};
  const PlacementSearchResult best = best_grid_placement(m, 3);
  EXPECT_LE(singleton_delay, 2.0 * best.avg_network_delay + 1e-9);

  const quorum::MajorityQuorum majority{5, 3};
  const PlacementSearchResult best_majority = best_majority_placement(m, majority);
  EXPECT_LE(singleton_delay, 2.0 * best_majority.avg_network_delay + 1e-9);
}

// ------------------------------------------------------------- Best-client

TEST(BestPlacement, PicksBestCandidate) {
  const LatencyMatrix m = net::small_synth(10, 2);
  const quorum::MajorityQuorum system{3, 2};
  const PlacementSearchResult best = best_majority_placement(m, system);
  // The winner must be at least as good as every per-candidate placement.
  for (std::size_t v0 = 0; v0 < m.size(); ++v0) {
    const Placement p = majority_ball_placement(m, 3, v0);
    EXPECT_GE(network_delay_objective().evaluate(m, system, p) + 1e-9, best.avg_network_delay);
  }
}

TEST(BestPlacement, RestrictedCandidates) {
  const LatencyMatrix m = net::small_synth(10, 2);
  const quorum::MajorityQuorum system{3, 2};
  const std::vector<std::size_t> candidates{4};
  const PlacementSearchResult best = best_majority_placement(m, system, candidates);
  EXPECT_EQ(best.anchor_client, 4u);
  const Placement expected = majority_ball_placement(m, 3, 4);
  EXPECT_EQ(best.placement.site_of, expected.site_of);
}

TEST(BestPlacement, GridSearchConsistent) {
  const LatencyMatrix m = net::small_synth(12, 13);
  const PlacementSearchResult best = best_grid_placement(m, 3);
  const quorum::GridQuorum system{3};
  EXPECT_NEAR(best.avg_network_delay,
              network_delay_objective().evaluate(m, system, best.placement), 1e-12);
  const Placement direct = grid_placement_for_client(m, 3, best.anchor_client);
  EXPECT_EQ(best.placement.site_of, direct.site_of);
}

}  // namespace
}  // namespace qp::core
