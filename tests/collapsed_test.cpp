// Tests for the §8 future-work "collapsed execution" model: a site hosting
// several universe elements executes a touching request once, not once per
// element.
#include <gtest/gtest.h>

#include <vector>

#include "core/placement.hpp"
#include "core/response.hpp"
#include "core/strategy.hpp"
#include "net/synthetic.hpp"
#include "quorum/grid.hpp"
#include "quorum/majority.hpp"
#include "support/quorum_enumeration.hpp"

namespace qp::core {
namespace {

using net::LatencyMatrix;

TEST(Collapsed, ModelsCoincideOnOneToOnePlacements) {
  const LatencyMatrix m = net::small_synth(12, 3);
  const quorum::GridQuorum grid{3};
  const Placement p = best_grid_placement(m, 3).placement;
  ASSERT_TRUE(p.one_to_one());
  const auto per_element =
      site_loads_balanced(grid, p, m.size(), ExecutionModel::PerElement);
  const auto collapsed = site_loads_balanced(grid, p, m.size(), ExecutionModel::Collapsed);
  for (std::size_t w = 0; w < m.size(); ++w) {
    EXPECT_NEAR(per_element[w], collapsed[w], 1e-12);
  }
  const auto closest_pe = site_loads_closest(m, grid, p, {}, ExecutionModel::PerElement);
  const auto closest_c = site_loads_closest(m, grid, p, {}, ExecutionModel::Collapsed);
  for (std::size_t w = 0; w < m.size(); ++w) {
    EXPECT_NEAR(closest_pe[w], closest_c[w], 1e-12);
  }
}

TEST(Collapsed, NeverExceedsPerElementLoad) {
  const LatencyMatrix m = net::small_synth(10, 5);
  const quorum::GridQuorum grid{2};
  // Heavily colocated placement: two sites host two elements each.
  const Placement p{{1, 1, 4, 4}};
  const auto per_element =
      site_loads_balanced(grid, p, m.size(), ExecutionModel::PerElement);
  const auto collapsed = site_loads_balanced(grid, p, m.size(), ExecutionModel::Collapsed);
  for (std::size_t w = 0; w < m.size(); ++w) {
    EXPECT_LE(collapsed[w], per_element[w] + 1e-12);
  }
  // On this placement every quorum touches both sites: collapsed load is
  // exactly 1 on each (every request executes once there), while the
  // per-element load is 1.5.
  EXPECT_NEAR(collapsed[1], 1.0, 1e-12);
  EXPECT_NEAR(collapsed[4], 1.0, 1e-12);
  EXPECT_NEAR(per_element[1], 1.5, 1e-12);
}

TEST(Collapsed, SingletonPlacementLoadIsOne) {
  // All elements on one node: the node executes each request once under the
  // collapsed model (load 1.0), versus |Q| under per-element.
  const LatencyMatrix m = net::small_synth(8, 7);
  const quorum::GridQuorum grid{2};
  const Placement p = singleton_placement(m, grid.universe_size());
  const auto collapsed = site_loads_balanced(grid, p, m.size(), ExecutionModel::Collapsed);
  const auto per_element =
      site_loads_balanced(grid, p, m.size(), ExecutionModel::PerElement);
  const std::size_t median = p.site_of[0];
  EXPECT_NEAR(collapsed[median], 1.0, 1e-12);
  EXPECT_NEAR(per_element[median], 3.0, 1e-12);  // Grid(2) quorums have 3 elements.
}

TEST(Collapsed, MajorityHypergeometricMatchesEnumeration) {
  const quorum::MajorityQuorum majority{7, 4};
  // For a set S of hosted elements, compare the closed form with counting.
  const auto quorums = quorum::test_support::quorum_list(majority);
  for (const std::vector<std::size_t>& hosted :
       {std::vector<std::size_t>{0}, {1, 2}, {0, 3, 6}, {0, 1, 2, 3, 4, 5, 6}}) {
    int touching = 0;
    for (const auto& quorum : quorums) {
      bool touches = false;
      for (std::size_t u : quorum) {
        for (std::size_t s : hosted) touches |= (u == s);
      }
      touching += touches;
    }
    const double expected =
        static_cast<double>(touching) / static_cast<double>(quorums.size());
    EXPECT_NEAR(majority.uniform_touch_probability(hosted), expected, 1e-12)
        << "|S|=" << hosted.size();
    // The base class's incidence-list merge over the quorum table.
    EXPECT_DOUBLE_EQ(majority.QuorumSystem::uniform_touch_probability(hosted), expected)
        << "|S|=" << hosted.size();
  }
}

TEST(Collapsed, ExplicitStrategyCollapsedLoads) {
  ExplicitStrategy s;
  s.quorums = quorum::test_support::make_table(2, {{0, 1}});  // Both elements.
  s.probability = {{1.0}, {1.0}};
  const Placement p{{2, 2}};  // Both elements on site 2.
  const auto collapsed = site_loads_explicit(s, p, 3, {}, ExecutionModel::Collapsed);
  const auto per_element = site_loads_explicit(s, p, 3, {}, ExecutionModel::PerElement);
  EXPECT_NEAR(collapsed[2], 1.0, 1e-12);
  EXPECT_NEAR(per_element[2], 2.0, 1e-12);
}

TEST(Collapsed, ImprovesResponseOnManyToOnePlacements) {
  // §8's claim: under the collapsed model, many-to-one placements get
  // cheaper because colocation stops multiplying load.
  const LatencyMatrix m = net::small_synth(10, 11);
  const quorum::GridQuorum grid{2};
  const Placement p = singleton_placement(m, grid.universe_size());
  const double alpha = kQuWriteServiceMs * 8000;
  const Evaluation per_element =
      evaluate_balanced(m, grid, p, alpha, {}, ExecutionModel::PerElement);
  const Evaluation collapsed =
      evaluate_balanced(m, grid, p, alpha, {}, ExecutionModel::Collapsed);
  EXPECT_LT(collapsed.avg_response_ms, per_element.avg_response_ms);
  // Network delay is a pure distance measure — identical under both models.
  EXPECT_NEAR(collapsed.avg_network_delay_ms, per_element.avg_network_delay_ms, 1e-12);
}

TEST(Collapsed, EvaluateClosestSupportsModel) {
  const LatencyMatrix m = net::small_synth(9, 13);
  const quorum::GridQuorum grid{2};
  const Placement p{{0, 0, 1, 1}};
  const double alpha = 20.0;
  const Evaluation per_element =
      evaluate_closest(m, grid, p, alpha, {}, ExecutionModel::PerElement);
  const Evaluation collapsed = evaluate_closest(m, grid, p, alpha, {}, ExecutionModel::Collapsed);
  EXPECT_LE(collapsed.avg_response_ms, per_element.avg_response_ms + 1e-12);
}

}  // namespace
}  // namespace qp::core
