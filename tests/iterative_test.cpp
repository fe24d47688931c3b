#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "core/capacity.hpp"
#include "core/iterative.hpp"
#include "core/response.hpp"
#include "net/synthetic.hpp"
#include "quorum/grid.hpp"

namespace qp::core {
namespace {

using net::LatencyMatrix;

IterativeOptions fast_options(const LatencyMatrix& m, std::size_t anchors = 4) {
  IterativeOptions options;
  options.anchor_candidates.clear();
  for (std::size_t v = 0; v < std::min(anchors, m.size()); ++v) {
    options.anchor_candidates.push_back(v);
  }
  return options;
}

TEST(Iterative, ProducesConsistentResult) {
  const LatencyMatrix m = net::small_synth(10, 3);
  const quorum::GridQuorum grid{2};
  const auto caps = uniform_capacities(m.size(), 0.9);
  const IterativeResult result =
      iterative_placement(m, grid, caps, network_delay_objective(), fast_options(m));
  result.placement.validate(m.size());
  result.strategy.validate(m.size(), grid.universe_size());
  ASSERT_FALSE(result.history.empty());
  // Reported response must match re-evaluating the returned artifacts.
  const Evaluation check = evaluate_explicit(m, grid, result.placement, 0.0, result.strategy);
  EXPECT_NEAR(check.avg_response_ms, result.avg_response, 1e-9);
}

TEST(Iterative, Phase2NeverWorseThanPhase1) {
  // The strategy LP can only decrease delay at fixed loads (§4.2).
  const LatencyMatrix m = net::small_synth(12, 7);
  const quorum::GridQuorum grid{2};
  const auto caps = uniform_capacities(m.size(), 0.8);
  const IterativeResult result =
      iterative_placement(m, grid, caps, LoadAwareObjective{10.0}, fast_options(m));
  for (const IterationRecord& record : result.history) {
    if (record.response_after_strategy == 0.0) continue;  // LP failure path.
    EXPECT_LE(record.response_after_strategy, record.response_after_placement + 1e-6);
  }
}

TEST(Iterative, AcceptedIterationsImproveMonotonically) {
  const LatencyMatrix m = net::small_synth(12, 11);
  const quorum::GridQuorum grid{2};
  const auto caps = uniform_capacities(m.size(), 0.9);
  const IterativeResult result =
      iterative_placement(m, grid, caps, LoadAwareObjective{5.0}, fast_options(m, 6));
  double previous = 1e300;
  for (const IterationRecord& record : result.history) {
    if (!record.accepted) continue;
    EXPECT_LT(record.response_after_strategy, previous + 1e-9);
    previous = record.response_after_strategy;
  }
  // The returned response equals the last accepted iteration's.
  EXPECT_NEAR(result.avg_response, previous, 1e-9);
}

TEST(Iterative, HaltsWithinMaxIterations) {
  const LatencyMatrix m = net::small_synth(9, 13);
  const quorum::GridQuorum grid{2};
  const auto caps = uniform_capacities(m.size(), 1.0);
  IterativeOptions options = fast_options(m);
  options.max_iterations = 3;
  const IterativeResult result =
      iterative_placement(m, grid, caps, network_delay_objective(), options);
  EXPECT_LE(result.history.size(), 3u);
}

TEST(Iterative, ThrowsWhenFirstIterationInfeasible) {
  const LatencyMatrix m = net::small_synth(6, 17);
  const quorum::GridQuorum grid{2};
  const auto caps = uniform_capacities(m.size(), 0.01);  // Cannot fit load 3.
  EXPECT_THROW(
      (void)iterative_placement(m, grid, caps, network_delay_objective(), fast_options(m)),
      std::runtime_error);
}

TEST(Iterative, ManyToOneImprovesNetworkDelayOverOneToOne) {
  // Figure 8.9's headline: the iterative (many-to-one) network delay beats
  // the one-to-one placement's balanced-strategy delay.
  const LatencyMatrix m = net::small_synth(14, 19);
  const quorum::GridQuorum grid{2};
  const auto caps = uniform_capacities(m.size(), 1.0);
  const IterativeResult iterative =
      iterative_placement(m, grid, caps, network_delay_objective(), fast_options(m, 14));

  const PlacementSearchResult one_to_one = best_grid_placement(m, 2);
  const Evaluation baseline = evaluate_balanced(m, grid, one_to_one.placement, 0.0);
  EXPECT_LE(iterative.avg_network_delay, baseline.avg_network_delay_ms + 1e-9);
}

TEST(Iterative, HistoryRecordsPhases) {
  const LatencyMatrix m = net::small_synth(10, 23);
  const quorum::GridQuorum grid{2};
  const auto caps = uniform_capacities(m.size(), 0.9);
  const IterativeResult result =
      iterative_placement(m, grid, caps, network_delay_objective(), fast_options(m));
  for (std::size_t j = 0; j < result.history.size(); ++j) {
    EXPECT_EQ(result.history[j].iteration, j + 1);
    EXPECT_GT(result.history[j].response_after_placement, 0.0);
  }
  EXPECT_TRUE(result.history.front().accepted);
}

TEST(Iterative, DemandWeightedPhaseLpsStayConsistent) {
  // Skewed demand flows through both phases: the reported response must
  // match re-evaluating the returned artifacts under the same demand, and
  // the phase-2 LP strategies must respect the demand-weighted load caps
  // pinned to the phase-1 loads (phase 2 can only re-route delay).
  const LatencyMatrix m = net::small_synth(10, 29);
  const quorum::GridQuorum grid{2};
  const auto caps = uniform_capacities(m.size(), 0.9);
  std::vector<double> demand(m.size(), 1.0);
  demand[0] = 6.0;
  demand[3] = 3.0;
  const LoadAwareObjective objective =
      LoadAwareObjective::for_demand(std::span<const double>{demand});
  const IterativeResult result =
      iterative_placement(m, grid, caps, objective, fast_options(m));
  result.placement.validate(m.size());
  result.strategy.validate(m.size(), grid.universe_size());
  ASSERT_FALSE(result.history.empty());
  const Evaluation check = evaluate_explicit(m, grid, result.placement, objective.alpha(),
                                             result.strategy, demand);
  EXPECT_NEAR(check.avg_response_ms, result.avg_response, 1e-9);
  for (const IterationRecord& record : result.history) {
    if (record.accepted) {
      EXPECT_LE(record.response_after_strategy,
                record.response_after_placement + 1e-9);
    }
  }
}

}  // namespace
}  // namespace qp::core
