#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/capacity.hpp"
#include "core/eval_workspace.hpp"
#include "core/placement.hpp"
#include "core/strategy.hpp"
#include "net/synthetic.hpp"
#include "quorum/grid.hpp"
#include "quorum/majority.hpp"
#include "support/quorum_enumeration.hpp"

namespace qp::core {
namespace {

using net::LatencyMatrix;
using quorum::test_support::make_table;

// ------------------------------------------------------- ExplicitStrategy

TEST(ExplicitStrategy, ValidationAcceptsProperDistribution) {
  ExplicitStrategy s;
  s.quorums = make_table(3, {{0, 1}, {1, 2}});
  s.probability = {{0.25, 0.75}, {1.0, 0.0}};
  EXPECT_NO_THROW(s.validate(2, 3));
}

TEST(ExplicitStrategy, ValidationRejectsBadShapes) {
  ExplicitStrategy s;
  EXPECT_THROW(s.validate(0, 2), std::invalid_argument);  // No quorum table.
  s.quorums = make_table(2, {{0, 1}});
  s.probability = {{1.0}};
  EXPECT_THROW(s.validate(2, 2), std::invalid_argument);  // Wrong client count.
  s.probability = {{0.5}, {1.0}};
  EXPECT_THROW(s.validate(2, 2), std::invalid_argument);  // Row sums to 0.5.
  s.probability = {{1.0}, {1.0}};
  EXPECT_NO_THROW(s.validate(2, 2));
  s.quorums = make_table(6, {{0, 5}});
  EXPECT_THROW(s.validate(2, 2), std::out_of_range);  // Element out of range.
  s.quorums = make_table(2, {{}});
  EXPECT_THROW(s.validate(2, 2), std::invalid_argument);  // Empty quorum.
}

TEST(ExplicitStrategy, RejectsNaNProbability) {
  // NaN fails both the range and the sum comparison, so without an explicit
  // finiteness check a NaN row would validate.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ExplicitStrategy s;
  s.quorums = make_table(3, {{0, 1}, {1, 2}});
  s.probability = {{nan, 1.0}, {1.0, 0.0}};
  EXPECT_THROW(s.validate(2, 3), std::invalid_argument);
  s.probability = {{0.25, 0.75}, {nan, nan}};
  EXPECT_THROW(s.validate(2, 3), std::invalid_argument);
}

TEST(ExplicitStrategy, AverageDistribution) {
  ExplicitStrategy s;
  s.quorums = make_table(2, {{0}, {1}});
  s.probability = {{1.0, 0.0}, {0.0, 1.0}};
  const auto avg = s.average_distribution();
  EXPECT_DOUBLE_EQ(avg[0], 0.5);
  EXPECT_DOUBLE_EQ(avg[1], 0.5);
}

// ------------------------------------------------------------ Element load

TEST(ElementLoads, SumsQuorumProbabilities) {
  const auto quorums = make_table(3, {{0, 1}, {1, 2}});
  const std::vector<double> distribution{0.3, 0.7};
  const auto loads = element_loads(*quorums, distribution);
  EXPECT_DOUBLE_EQ(loads[0], 0.3);
  EXPECT_DOUBLE_EQ(loads[1], 1.0);
  EXPECT_DOUBLE_EQ(loads[2], 0.7);
}

TEST(ElementLoads, ErrorsOnMismatch) {
  EXPECT_THROW((void)element_loads(*make_table(1, {{0}}), std::vector<double>{0.5, 0.5}),
               std::invalid_argument);
  // An element outside the universe cannot enter a table.
  EXPECT_THROW((void)make_table(2, {{3}}), std::out_of_range);
}

// -------------------------------------------------------------- Site loads

TEST(SiteLoads, BalancedMatchesUniformLoadTimesPlacement) {
  const quorum::GridQuorum grid{2};
  // Two elements share site 1; the others live alone.
  const Placement p{{1, 1, 0, 2}};
  const auto loads = site_loads_balanced(grid, p, 4);
  const double per_element = grid.uniform_load()[0];
  EXPECT_DOUBLE_EQ(loads[1], 2 * per_element);
  EXPECT_DOUBLE_EQ(loads[0], per_element);
  EXPECT_DOUBLE_EQ(loads[2], per_element);
  EXPECT_DOUBLE_EQ(loads[3], 0.0);
}

TEST(SiteLoads, TotalLoadConservation) {
  // Total load always equals the average quorum size (sum over elements of
  // load(u) = E[|Q|]), independent of strategy.
  const LatencyMatrix m = net::small_synth(9, 17);
  const quorum::GridQuorum grid{2};
  const Placement p = grid_placement_for_client(m, 2, 0);
  const double quorum_size = 3.0;  // 2k-1 for k=2.

  const auto balanced = site_loads_balanced(grid, p, m.size());
  double total = 0.0;
  for (double load : balanced) total += load;
  EXPECT_NEAR(total, quorum_size, 1e-12);

  const auto closest = site_loads_closest(m, grid, p);
  total = 0.0;
  for (double load : closest) total += load;
  EXPECT_NEAR(total, quorum_size, 1e-12);
}

TEST(SiteLoads, ClosestConcentratesOnPopularQuorum) {
  const LatencyMatrix m = net::small_synth(16, 3);
  const quorum::GridQuorum grid{3};
  const PlacementSearchResult best = best_grid_placement(m, 3);
  const auto closest = site_loads_closest(m, grid, best.placement);
  const auto balanced = site_loads_balanced(grid, best.placement, m.size());
  // Closest routing produces a strictly higher maximum load than balanced.
  EXPECT_GT(*std::max_element(closest.begin(), closest.end()),
            *std::max_element(balanced.begin(), balanced.end()) - 1e-12);
}

TEST(SiteLoads, ExplicitMatchesHandComputation) {
  ExplicitStrategy s;
  s.quorums = make_table(2, {{0, 1}, {1}});
  s.probability = {{1.0, 0.0}, {0.0, 1.0}};  // Client 0 -> Q0, client 1 -> Q1.
  const Placement p{{0, 1}};
  const auto loads = site_loads_explicit(s, p, 3);
  // Element 0: only Q0 via client 0 -> avg load 0.5. Element 1: both clients -> 1.0.
  EXPECT_DOUBLE_EQ(loads[0], 0.5);
  EXPECT_DOUBLE_EQ(loads[1], 1.0);
  EXPECT_DOUBLE_EQ(loads[2], 0.0);
}

// ---------------------------------------------------------- Closest quorums

TEST(ClosestQuorums, EachClientGetsItsOwnBest) {
  const LatencyMatrix m = net::small_synth(10, 23);
  const quorum::GridQuorum grid{2};
  const Placement p = best_grid_placement(m, 2).placement;
  const auto chosen = closest_quorums(m, grid, p);
  ASSERT_EQ(chosen.size(), m.size());
  for (std::size_t v = 0; v < m.size(); ++v) {
    std::vector<double> values;
    fill_element_distances(m, p, v, values);
    double chosen_max = 0.0;
    for (std::size_t u : chosen[v]) chosen_max = std::max(chosen_max, values[u]);
    for (const auto& quorum : quorum::test_support::quorum_list(grid)) {
      double other = 0.0;
      for (std::size_t u : quorum) other = std::max(other, values[u]);
      EXPECT_GE(other + 1e-12, chosen_max);
    }
  }
}

// ------------------------------------------------------------- Strategy LP

TEST(StrategyLp, UncapacitatedRecoversClosest) {
  // With capacity 1.0 everywhere the LP is free to send every client to its
  // closest quorum; objective must equal the closest strategy's delay.
  const LatencyMatrix m = net::small_synth(12, 31);
  const quorum::GridQuorum grid{2};
  const Placement p = best_grid_placement(m, 2).placement;
  const auto caps = uniform_capacities(m.size(), 1.0);
  const StrategyLpResult lp = optimize_access_strategy(m, grid, p, caps);
  ASSERT_EQ(lp.status, lp::SolveStatus::Optimal);

  double closest_total = 0.0;
  for (std::size_t v = 0; v < m.size(); ++v) {
    std::vector<double> values;
    fill_element_distances(m, p, v, values);
    double best = 1e300;
    for (const auto& quorum : quorum::test_support::quorum_list(grid)) {
      double worst = 0.0;
      for (std::size_t u : quorum) worst = std::max(worst, values[u]);
      best = std::min(best, worst);
    }
    closest_total += best;
  }
  EXPECT_NEAR(lp.avg_network_delay, closest_total / static_cast<double>(m.size()), 1e-6);
}

TEST(StrategyLp, RespectsCapacities) {
  const LatencyMatrix m = net::small_synth(12, 37);
  const quorum::GridQuorum grid{3};
  const Placement p = best_grid_placement(m, 3).placement;
  const double cap_level = grid.optimal_load() * 1.1;
  const auto caps = uniform_capacities(m.size(), cap_level);
  const StrategyLpResult lp = optimize_access_strategy(m, grid, p, caps);
  ASSERT_EQ(lp.status, lp::SolveStatus::Optimal);
  lp.strategy.validate(m.size(), grid.universe_size());
  const auto loads = site_loads_explicit(lp.strategy, p, m.size());
  for (double load : loads) EXPECT_LE(load, cap_level + 1e-6);
}

TEST(StrategyLp, InfeasibleWhenCapacityBelowOptimalLoad) {
  const LatencyMatrix m = net::small_synth(9, 41);
  const quorum::GridQuorum grid{2};
  const Placement p = best_grid_placement(m, 2).placement;
  // Total element load is always >= |Q|; with per-site caps far below
  // L_opt the workload cannot fit.
  const auto caps = uniform_capacities(m.size(), grid.optimal_load() * 0.5);
  const StrategyLpResult lp = optimize_access_strategy(m, grid, p, caps);
  EXPECT_EQ(lp.status, lp::SolveStatus::Infeasible);
}

TEST(StrategyLp, TighterCapacityNeverImprovesDelay) {
  const LatencyMatrix m = net::small_synth(12, 43);
  const quorum::GridQuorum grid{2};
  const Placement p = best_grid_placement(m, 2).placement;
  // Grid(2) carries total load 3 over 4 support sites, so anything >= 0.75
  // per site is feasible.
  double previous = -1.0;
  for (double cap : {1.0, 0.9, 0.8, 0.76}) {
    const StrategyLpResult lp =
        optimize_access_strategy(m, grid, p, uniform_capacities(m.size(), cap));
    ASSERT_EQ(lp.status, lp::SolveStatus::Optimal) << "cap=" << cap;
    EXPECT_GE(lp.avg_network_delay + 1e-7, previous) << "cap=" << cap;
    previous = lp.avg_network_delay;
  }
}

TEST(StrategyLp, MajorityViaEnumeration) {
  // Small majority systems are enumerable, so the LP works for them too.
  const LatencyMatrix m = net::small_synth(8, 47);
  const quorum::MajorityQuorum majority{5, 3};
  const Placement p = best_majority_placement(m, majority).placement;
  const auto caps = uniform_capacities(m.size(), 0.8);
  const StrategyLpResult lp = optimize_access_strategy(m, majority, p, caps);
  ASSERT_EQ(lp.status, lp::SolveStatus::Optimal);
  lp.strategy.validate(m.size(), 5);
  const auto loads = site_loads_explicit(lp.strategy, p, m.size());
  for (double load : loads) EXPECT_LE(load, 0.8 + 1e-6);
}

TEST(StrategyLp, ErrorsOnBadInput) {
  const LatencyMatrix m = net::small_synth(6, 53);
  const quorum::GridQuorum grid{2};
  const Placement p = best_grid_placement(m, 2).placement;
  const std::vector<double> short_caps(2, 1.0);
  EXPECT_THROW((void)optimize_access_strategy(m, grid, p, short_caps),
               std::invalid_argument);
  const std::vector<double> short_weights(2, 0.5);
  const auto caps = uniform_capacities(m.size(), 1.0);
  EXPECT_THROW((void)optimize_access_strategy(m, grid, p, caps, short_weights),
               std::invalid_argument);
  std::vector<double> bad_weights(m.size(), 1.0 / static_cast<double>(m.size()));
  bad_weights[1] = -0.1;
  EXPECT_THROW((void)optimize_access_strategy(m, grid, p, caps, bad_weights),
               std::invalid_argument);
}

TEST(StrategyLp, RejectsNonFiniteCapacities) {
  // An unchecked non-finite cap would reach the LP layer as a row bound;
  // the API itself must reject it, whether or not the caps can bind.
  const LatencyMatrix m = net::small_synth(9, 59);
  const quorum::GridQuorum grid{3};
  const Placement p = best_grid_placement(m, 3).placement;
  const auto expect_rejected = [&](const std::vector<double>& caps) {
    try {
      (void)optimize_access_strategy(m, grid, p, caps);
      ADD_FAILURE() << "non-finite capacities were accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string{error.what()}.find("optimize_access_strategy"),
                std::string::npos)
          << error.what();
    }
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  expect_rejected(std::vector<double>(m.size(), nan));
  // One NaN among caps that can bind.
  std::vector<double> one_nan = uniform_capacities(m.size(), grid.optimal_load() * 1.1);
  one_nan[p.site_of[0]] = nan;
  expect_rejected(one_nan);
  std::vector<double> infinite = uniform_capacities(m.size(), 1.0);
  infinite[0] = std::numeric_limits<double>::infinity();
  expect_rejected(infinite);
  // Negative caps stay valid input: the LP reports them Infeasible.
  std::vector<double> negative = uniform_capacities(m.size(), 1.0);
  negative[p.site_of[0]] = -0.5;
  EXPECT_EQ(optimize_access_strategy(m, grid, p, negative).status,
            lp::SolveStatus::Infeasible);
}

// --------------------------------------------------- demand-weighted LP

TEST(StrategyLp, UniformWeightsPinTheUnweightedLpBitwise) {
  // Explicit uniform demand shares must reproduce the 1/|V| LP exactly —
  // same coefficients, same simplex path, bitwise-equal output.
  const LatencyMatrix m = net::small_synth(12, 37);
  const quorum::GridQuorum grid{3};
  const Placement p = best_grid_placement(m, 3).placement;
  const auto caps = uniform_capacities(m.size(), grid.optimal_load() * 1.1);
  const StrategyLpResult unweighted = optimize_access_strategy(m, grid, p, caps);
  const std::vector<double> uniform(m.size(), 1.0 / static_cast<double>(m.size()));
  const StrategyLpResult weighted = optimize_access_strategy(m, grid, p, caps, uniform);
  ASSERT_EQ(unweighted.status, lp::SolveStatus::Optimal);
  ASSERT_EQ(weighted.status, lp::SolveStatus::Optimal);
  EXPECT_EQ(weighted.avg_network_delay, unweighted.avg_network_delay);
  EXPECT_EQ(weighted.lp_iterations, unweighted.lp_iterations);
  ASSERT_EQ(weighted.strategy.probability.size(), unweighted.strategy.probability.size());
  for (std::size_t v = 0; v < m.size(); ++v) {
    EXPECT_EQ(weighted.strategy.probability[v], unweighted.strategy.probability[v]);
  }
}

TEST(StrategyLp, DemandWeightsEnterTheCapacityRows) {
  // One hot client carrying half the demand: the weighted LP must keep the
  // *demand-weighted* load under the caps, which forces it to spread the
  // hot client's accesses where the uniform LP did not have to.
  const LatencyMatrix m = net::small_synth(12, 37);
  const quorum::GridQuorum grid{3};
  const Placement p = best_grid_placement(m, 3).placement;
  const double cap_level = grid.optimal_load() * 1.1;
  const auto caps = uniform_capacities(m.size(), cap_level);
  std::vector<double> weights(m.size(), 0.5 / static_cast<double>(m.size() - 1));
  weights[0] = 0.5;
  const StrategyLpResult lp = optimize_access_strategy(m, grid, p, caps, weights);
  ASSERT_EQ(lp.status, lp::SolveStatus::Optimal);
  lp.strategy.validate(m.size(), grid.universe_size());
  const auto loads = site_loads_explicit(lp.strategy, p, m.size(), weights);
  for (double load : loads) EXPECT_LE(load, cap_level + 1e-6);
  // The LP objective is the demand-weighted average delay of the strategy.
  double expected = 0.0;
  for (std::size_t v = 0; v < m.size(); ++v) {
    std::vector<double> values;
    fill_element_distances(m, p, v, values);
    for (std::size_t i = 0; i < lp.strategy.quorums->size(); ++i) {
      double worst = 0.0;
      for (std::size_t u : (*lp.strategy.quorums)[i]) worst = std::max(worst, values[u]);
      expected += weights[v] * lp.strategy.probability[v][i] * worst;
    }
  }
  EXPECT_NEAR(lp.avg_network_delay, expected, 1e-6);
  // And it genuinely differs from the uniform solution under these caps.
  const StrategyLpResult uniform = optimize_access_strategy(m, grid, p, caps);
  ASSERT_EQ(uniform.status, lp::SolveStatus::Optimal);
  EXPECT_NE(lp.avg_network_delay, uniform.avg_network_delay);
}

TEST(StrategyLp, UniformLpOverloadsCapacityUnderSkewTheWeightedLpFixes) {
  // The point of the demand-weighted capacity rows: a strategy the 1/|V| LP
  // certifies as feasible can overload sites once one client carries most
  // of the demand (its closest-quorum concentration now weighs its share,
  // not 1/|V|), while the weighted LP keeps the true weighted load legal.
  const LatencyMatrix m = net::small_synth(12, 43);
  const quorum::GridQuorum grid{3};
  const Placement p = best_grid_placement(m, 3).placement;
  const double cap_level = grid.optimal_load() * 1.05;
  const auto caps = uniform_capacities(m.size(), cap_level);
  std::vector<double> weights(m.size(), 0.3 / static_cast<double>(m.size() - 1));
  weights[0] = 0.7;
  const StrategyLpResult uniform = optimize_access_strategy(m, grid, p, caps);
  const StrategyLpResult skewed = optimize_access_strategy(m, grid, p, caps, weights);
  ASSERT_EQ(uniform.status, lp::SolveStatus::Optimal);
  ASSERT_EQ(skewed.status, lp::SolveStatus::Optimal);

  const auto max_load = [&](const StrategyLpResult& lp) {
    const auto loads = site_loads_explicit(lp.strategy, p, m.size(), weights);
    return *std::max_element(loads.begin(), loads.end());
  };
  EXPECT_GT(max_load(uniform), cap_level + 1e-6);   // Overloaded under skew.
  EXPECT_LE(max_load(skewed), cap_level + 1e-6);    // Weighted LP stays legal.
}

}  // namespace
}  // namespace qp::core
