// Property sweeps over the response-time model (TEST_P over seeds):
// relationships that must hold for every topology/placement combination.
#include <gtest/gtest.h>

#include <vector>

#include "core/capacity.hpp"
#include "core/placement.hpp"
#include "core/response.hpp"
#include "core/strategy.hpp"
#include "net/synthetic.hpp"
#include "quorum/grid.hpp"
#include "quorum/majority.hpp"

namespace qp::core {
namespace {

class ResponseModelSweep : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  net::LatencyMatrix matrix_ = net::small_synth(13, GetParam());
  quorum::GridQuorum grid_{2};
  Placement placement_ = best_grid_placement(matrix_, 2).placement;
};

TEST_P(ResponseModelSweep, ResponseMonotoneInAlpha) {
  double previous_closest = -1.0;
  double previous_balanced = -1.0;
  for (double alpha : {0.0, 5.0, 20.0, 80.0, 320.0}) {
    const double closest = evaluate_closest(matrix_, grid_, placement_, alpha).avg_response_ms;
    const double balanced =
        evaluate_balanced(matrix_, grid_, placement_, alpha).avg_response_ms;
    EXPECT_GE(closest + 1e-9, previous_closest);
    EXPECT_GE(balanced + 1e-9, previous_balanced);
    previous_closest = closest;
    previous_balanced = balanced;
  }
}

TEST_P(ResponseModelSweep, AlphaZeroResponseEqualsNetworkDelay) {
  const Evaluation closest = evaluate_closest(matrix_, grid_, placement_, 0.0);
  EXPECT_NEAR(closest.avg_response_ms, closest.avg_network_delay_ms, 1e-12);
  const Evaluation balanced = evaluate_balanced(matrix_, grid_, placement_, 0.0);
  EXPECT_NEAR(balanced.avg_response_ms, balanced.avg_network_delay_ms, 1e-12);
}

TEST_P(ResponseModelSweep, LpStrategyNeverWorseThanBalancedAtItsOwnLoads) {
  // Give the LP exactly the balanced strategy's loads as capacities: the
  // balanced strategy is feasible, so the optimum's *network delay* cannot
  // be worse than balanced's.
  const Evaluation balanced = evaluate_balanced(matrix_, grid_, placement_, 0.0);
  std::vector<double> caps = balanced.site_load;
  for (double& c : caps) c = c * (1.0 + 1e-9) + 1e-12;
  const StrategyLpResult lp = optimize_access_strategy(matrix_, grid_, placement_, caps);
  ASSERT_EQ(lp.status, lp::SolveStatus::Optimal);
  EXPECT_LE(lp.avg_network_delay, balanced.avg_network_delay_ms + 1e-6);
}

TEST_P(ResponseModelSweep, LpRespectsLoadsSoResponseBoundedAtAnyAlpha) {
  // With caps = balanced loads, the LP strategy's per-site loads are no
  // higher than balanced's, so for ANY alpha its response time is bounded
  // by balanced's network delay plus alpha times the max balanced load...
  // the checkable invariant: site loads dominated by caps.
  const Evaluation balanced = evaluate_balanced(matrix_, grid_, placement_, 0.0);
  std::vector<double> caps = balanced.site_load;
  for (double& c : caps) c = c * (1.0 + 1e-9) + 1e-12;
  const StrategyLpResult lp = optimize_access_strategy(matrix_, grid_, placement_, caps);
  ASSERT_EQ(lp.status, lp::SolveStatus::Optimal);
  const auto loads = site_loads_explicit(lp.strategy, placement_, matrix_.size());
  for (std::size_t w = 0; w < matrix_.size(); ++w) {
    EXPECT_LE(loads[w], caps[w] + 1e-6);
  }
}

TEST_P(ResponseModelSweep, ClosestQuorumGivesMinimalNetworkDelayPerClient) {
  const Evaluation closest = evaluate_closest(matrix_, grid_, placement_, 0.0);
  const Evaluation balanced = evaluate_balanced(matrix_, grid_, placement_, 0.0);
  // Per-client: deterministic closest <= expected uniform.
  for (std::size_t v = 0; v < matrix_.size(); ++v) {
    EXPECT_LE(closest.per_client_response[v], balanced.per_client_response[v] + 1e-9);
  }
}

TEST_P(ResponseModelSweep, SiteLoadTotalsAreStrategyInvariant) {
  // Under PerElement accounting, total load = expected quorum size for any
  // strategy on any placement.
  const double quorum_size = 3.0;  // Grid(2).
  for (const std::vector<double>& loads :
       {site_loads_closest(matrix_, grid_, placement_),
        site_loads_balanced(grid_, placement_, matrix_.size())}) {
    double total = 0.0;
    for (double l : loads) total += l;
    EXPECT_NEAR(total, quorum_size, 1e-9);
  }
}

TEST_P(ResponseModelSweep, MajorityAnalyticAgreesWithGridStyleEnumeration) {
  const quorum::MajorityQuorum majority{5, 3};
  const Placement placement = best_majority_placement(matrix_, majority).placement;
  const double alpha = 17.0;
  const Evaluation analytic = evaluate_balanced(matrix_, majority, placement, alpha);
  ExplicitStrategy uniform;
  uniform.quorums = majority.shared_quorums();
  uniform.probability.assign(
      matrix_.size(), std::vector<double>(uniform.quorums->size(),
                                          1.0 / static_cast<double>(uniform.quorums->size())));
  const Evaluation enumerated =
      evaluate_explicit(matrix_, majority, placement, alpha, uniform);
  EXPECT_NEAR(analytic.avg_response_ms, enumerated.avg_response_ms, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResponseModelSweep,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707, 808));

}  // namespace
}  // namespace qp::core
