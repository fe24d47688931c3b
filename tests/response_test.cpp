#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/placement.hpp"
#include "core/response.hpp"
#include "core/strategy.hpp"
#include "net/synthetic.hpp"
#include "quorum/grid.hpp"
#include "quorum/majority.hpp"
#include "quorum/singleton.hpp"

namespace qp::core {
namespace {

using net::LatencyMatrix;

LatencyMatrix tiny() {
  return LatencyMatrix{{{0.0, 10.0, 20.0},  //
                        {10.0, 0.0, 14.0},
                        {20.0, 14.0, 0.0}}};
}

TEST(Rho, MatchesDefinition) {
  const LatencyMatrix m = tiny();
  const Placement p{{0, 1}};
  const std::vector<double> load{0.5, 0.25, 0.0};
  const quorum::Quorum quorum{0, 1};
  // client 2: max( d(2,0) + a*0.5, d(2,1) + a*0.25 ) with a = 8:
  //           max( 20 + 4, 14 + 2 ) = 24.
  EXPECT_DOUBLE_EQ(rho(m, p, load, 8.0, 2, quorum), 24.0);
  // alpha = 0 reduces to pure network delay.
  EXPECT_DOUBLE_EQ(rho(m, p, load, 0.0, 2, quorum), 20.0);
}

TEST(EvaluateClosest, AlphaZeroSingletonIsAverageDistance) {
  const LatencyMatrix m = tiny();
  const quorum::SingletonQuorum s;
  const Placement p = singleton_placement(m);  // Median = site 1.
  const Evaluation eval = evaluate_closest(m, s, p, 0.0);
  EXPECT_DOUBLE_EQ(eval.avg_response_ms, (10.0 + 0.0 + 14.0) / 3.0);
  EXPECT_DOUBLE_EQ(eval.avg_network_delay_ms, eval.avg_response_ms);
}

TEST(EvaluateClosest, LoadTermIncreasesResponse) {
  const LatencyMatrix m = net::small_synth(12, 7);
  const quorum::GridQuorum grid{2};
  const Placement p = best_grid_placement(m, 2).placement;
  const Evaluation low = evaluate_closest(m, grid, p, 0.0);
  const Evaluation high = evaluate_closest(m, grid, p, 50.0);
  EXPECT_GT(high.avg_response_ms, low.avg_response_ms);
  // Network-delay component is unchanged by alpha.
  EXPECT_DOUBLE_EQ(high.avg_network_delay_ms, low.avg_network_delay_ms);
}

TEST(EvaluateBalanced, MatchesExplicitUniform) {
  // The analytic balanced evaluation must equal an explicit strategy whose
  // rows are all uniform.
  const LatencyMatrix m = net::small_synth(10, 9);
  const quorum::GridQuorum grid{2};
  const Placement p = best_grid_placement(m, 2).placement;
  const double alpha = 30.0;

  const Evaluation balanced = evaluate_balanced(m, grid, p, alpha);

  ExplicitStrategy uniform;
  uniform.quorums = grid.shared_quorums();
  uniform.probability.assign(
      m.size(), std::vector<double>(uniform.quorums->size(),
                                    1.0 / static_cast<double>(uniform.quorums->size())));
  const Evaluation explicit_eval = evaluate_explicit(m, grid, p, alpha, uniform);

  EXPECT_NEAR(balanced.avg_response_ms, explicit_eval.avg_response_ms, 1e-9);
  EXPECT_NEAR(balanced.avg_network_delay_ms, explicit_eval.avg_network_delay_ms, 1e-9);
  for (std::size_t w = 0; w < m.size(); ++w) {
    EXPECT_NEAR(balanced.site_load[w], explicit_eval.site_load[w], 1e-9);
  }
}

TEST(EvaluateBalanced, MajorityAnalyticMatchesEnumeration) {
  const LatencyMatrix m = net::small_synth(9, 13);
  const quorum::MajorityQuorum majority{5, 3};
  const Placement p = best_majority_placement(m, majority).placement;
  const double alpha = 12.0;

  const Evaluation analytic = evaluate_balanced(m, majority, p, alpha);

  ExplicitStrategy uniform;
  uniform.quorums = majority.shared_quorums();
  uniform.probability.assign(
      m.size(), std::vector<double>(uniform.quorums->size(),
                                    1.0 / static_cast<double>(uniform.quorums->size())));
  const Evaluation enumerated = evaluate_explicit(m, majority, p, alpha, uniform);
  EXPECT_NEAR(analytic.avg_response_ms, enumerated.avg_response_ms, 1e-9);
  EXPECT_NEAR(analytic.avg_network_delay_ms, enumerated.avg_network_delay_ms, 1e-9);
}

TEST(EvaluateClosest, BeatsBalancedAtZeroAlpha) {
  // With no load term, picking the closest quorum can only reduce delay.
  const LatencyMatrix m = net::small_synth(14, 19);
  const quorum::GridQuorum grid{3};
  const Placement p = best_grid_placement(m, 3).placement;
  const Evaluation closest = evaluate_closest(m, grid, p, 0.0);
  const Evaluation balanced = evaluate_balanced(m, grid, p, 0.0);
  EXPECT_LE(closest.avg_response_ms, balanced.avg_response_ms + 1e-9);
}

TEST(EvaluateBalanced, BeatsClosestAtHugeAlpha) {
  // The paper's central tension: under very high demand the balanced
  // strategy wins because closest concentrates load.
  const LatencyMatrix m = net::small_synth(14, 19);
  const quorum::GridQuorum grid{3};
  const Placement p = best_grid_placement(m, 3).placement;
  const double alpha = kQuWriteServiceMs * 100'000;  // Extreme demand.
  const Evaluation closest = evaluate_closest(m, grid, p, alpha);
  const Evaluation balanced = evaluate_balanced(m, grid, p, alpha);
  EXPECT_LT(balanced.avg_response_ms, closest.avg_response_ms);
}

TEST(Evaluation, PerClientVectorConsistent) {
  const LatencyMatrix m = net::small_synth(8, 23);
  const quorum::GridQuorum grid{2};
  const Placement p = best_grid_placement(m, 2).placement;
  const Evaluation eval = evaluate_closest(m, grid, p, 5.0);
  ASSERT_EQ(eval.per_client_response.size(), m.size());
  double sum = 0.0;
  for (double r : eval.per_client_response) sum += r;
  EXPECT_NEAR(eval.avg_response_ms, sum / static_cast<double>(m.size()), 1e-12);
}

TEST(Evaluation, ResponseAlwaysAtLeastNetworkDelay) {
  const LatencyMatrix m = net::small_synth(12, 29);
  const quorum::GridQuorum grid{2};
  const Placement p = best_grid_placement(m, 2).placement;
  for (double alpha : {0.0, 1.0, 10.0, 112.0}) {
    const Evaluation closest = evaluate_closest(m, grid, p, alpha);
    EXPECT_GE(closest.avg_response_ms + 1e-12, closest.avg_network_delay_ms);
    const Evaluation balanced = evaluate_balanced(m, grid, p, alpha);
    EXPECT_GE(balanced.avg_response_ms + 1e-12, balanced.avg_network_delay_ms);
  }
}

TEST(Evaluation, ManyToOnePlacementSupported) {
  // All elements on one site: response = d + alpha * total load.
  const LatencyMatrix m = tiny();
  const quorum::GridQuorum grid{2};
  const Placement p{{1, 1, 1, 1}};
  const double alpha = 2.0;
  const Evaluation eval = evaluate_balanced(m, grid, p, alpha);
  // Site 1 carries the whole load: sum of uniform loads = 4 * 3/4 = 3.
  EXPECT_DOUBLE_EQ(eval.site_load[1], 3.0);
  // Each client's response = d(v,1) + alpha * 3.
  const double expected = ((10.0 + 6.0) + (0.0 + 6.0) + (14.0 + 6.0)) / 3.0;
  EXPECT_NEAR(eval.avg_response_ms, expected, 1e-12);
}

}  // namespace
}  // namespace qp::core
