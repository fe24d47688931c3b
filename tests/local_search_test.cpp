#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "core/failure_objective.hpp"
#include "core/local_search.hpp"
#include "core/objective.hpp"
#include "core/placement.hpp"
#include "net/knn_index.hpp"
#include "net/synthetic.hpp"
#include "obs/metrics.hpp"
#include "quorum/grid.hpp"
#include "quorum/majority.hpp"

namespace qp::core {
namespace {

using net::LatencyMatrix;

Placement random_one_to_one(const LatencyMatrix& m, std::size_t universe,
                            common::Rng& rng) {
  return Placement{rng.sample_without_replacement(m.size(), universe)};
}

TEST(LocalSearch, NeverWorsensTheObjective) {
  const LatencyMatrix m = net::small_synth(14, 5);
  const quorum::GridQuorum grid{2};
  common::Rng rng{9};
  for (int trial = 0; trial < 10; ++trial) {
    const Placement initial = random_one_to_one(m, 4, rng);
    const double before = network_delay_objective().evaluate(m, grid, initial);
    const LocalSearchResult result = local_search_placement(m, grid, initial);
    EXPECT_LE(result.objective, before + 1e-12);
    EXPECT_NEAR(result.objective,
                network_delay_objective().evaluate(m, grid, result.placement), 1e-12);
    EXPECT_TRUE(result.placement.one_to_one());
  }
}

TEST(LocalSearch, ReachesLocalOptimum) {
  // Re-running local search on its own output must make zero moves.
  const LatencyMatrix m = net::small_synth(12, 7);
  const quorum::GridQuorum grid{2};
  common::Rng rng{11};
  const Placement initial = random_one_to_one(m, 4, rng);
  const LocalSearchResult first = local_search_placement(m, grid, initial);
  const LocalSearchResult second = local_search_placement(m, grid, first.placement);
  EXPECT_EQ(second.moves, 0u);
  EXPECT_DOUBLE_EQ(second.objective, first.objective);
}

TEST(LocalSearch, ImprovesBadInitialPlacements) {
  // Start from the WORST ball (farthest sites from the median): local search
  // must find something strictly better.
  const LatencyMatrix m = net::small_synth(16, 13);
  const quorum::GridQuorum grid{2};
  const std::size_t median = net::median_site(m);
  auto farthest = net::ball(m, median, m.size());
  std::reverse(farthest.begin(), farthest.end());
  farthest.resize(4);
  const Placement bad{farthest};
  const double before = network_delay_objective().evaluate(m, grid, bad);
  const LocalSearchResult result = local_search_placement(m, grid, bad);
  EXPECT_LT(result.objective, before);
  EXPECT_GT(result.moves, 0u);
}

TEST(LocalSearch, ConstructedGridPlacementIsNearLocalOptimum) {
  // The ablation claim: §4.1.1's constructive placement leaves little on
  // the table for single-relocation local search.
  const LatencyMatrix m = net::small_synth(16, 17);
  const quorum::GridQuorum grid{3};
  const PlacementSearchResult constructed = best_grid_placement(m, 3);
  const LocalSearchResult polished = local_search_placement(m, grid, constructed.placement);
  EXPECT_LE(polished.objective, constructed.avg_network_delay + 1e-12);
  // Improvement is bounded (< 15% on these topologies).
  EXPECT_GE(polished.objective, 0.85 * constructed.avg_network_delay);
}

TEST(LocalSearch, WorksForMajorities) {
  const LatencyMatrix m = net::small_synth(12, 19);
  const quorum::MajorityQuorum majority{5, 3};
  common::Rng rng{21};
  const Placement initial = random_one_to_one(m, 5, rng);
  const LocalSearchResult result = local_search_placement(m, majority, initial);
  // For majorities the optimum one-to-one placement is a ball; local search
  // from anywhere must not beat the exhaustive best-ball search.
  const PlacementSearchResult ball = best_majority_placement(m, majority);
  EXPECT_GE(result.objective + 1e-9, ball.avg_network_delay);
}

TEST(LocalSearch, RespectsRoundCap) {
  const LatencyMatrix m = net::small_synth(16, 23);
  const quorum::GridQuorum grid{2};
  const std::size_t median = net::median_site(m);
  auto farthest = net::ball(m, median, m.size());
  std::reverse(farthest.begin(), farthest.end());
  farthest.resize(4);
  LocalSearchOptions options;
  options.max_rounds = 1;
  const LocalSearchResult result =
      local_search_placement(m, grid, Placement{farthest}, options);
  EXPECT_LE(result.moves, 1u);
}

TEST(LocalSearch, RoutesByObjectiveCapability) {
  // One route per objective, chosen by Objective::supports_delta: the
  // failure-aware expectation is re-evaluated in full, the load-aware
  // objective runs on the delta evaluator.
  const auto runs = [](const std::string& name) -> std::uint64_t {
    for (const obs::MetricSnapshot& metric : obs::snapshot()) {
      if (metric.name == name) return metric.value;
    }
    ADD_FAILURE() << "metric not found: " << name;
    return 0;
  };
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const LatencyMatrix m = net::small_synth(10, 5);
  const quorum::MajorityQuorum majority{5, 3};
  const Placement initial{{0, 1, 2, 3, 4}};
  FailureModel model;
  model.site_failure_prob = 0.1;
  const FailureAwareObjective failure_aware{0.01, model};
  const LoadAwareObjective load_aware{0.01};

  for (const auto& [objective, naive_step, delta_step] :
       {std::tuple<const Objective*, std::uint64_t, std::uint64_t>{&failure_aware, 1, 0},
        std::tuple<const Objective*, std::uint64_t, std::uint64_t>{&load_aware, 0, 1}}) {
    const std::uint64_t naive = runs("core.local_search.naive_runs");
    const std::uint64_t delta = runs("core.local_search.delta_runs");
    LocalSearchOptions options;
    options.objective = objective;
    options.max_rounds = 1;
    (void)local_search_placement(m, majority, initial, options);
    EXPECT_EQ(runs("core.local_search.naive_runs"), naive + naive_step) << objective->name();
    EXPECT_EQ(runs("core.local_search.delta_runs"), delta + delta_step) << objective->name();
  }
  obs::set_enabled(was_enabled);
}

TEST(LocalSearch, RejectsKnnIndexOverADifferentSpace) {
  // The k-NN index must be built over the searched space: its neighbor
  // sites index the search's per-site tables.
  const LatencyMatrix m = net::small_synth(20, 31);
  const quorum::GridQuorum grid{2};
  const Placement initial{{0, 1, 2, 3}};
  const LoadAwareObjective objective{0.01};
  for (const std::size_t sites : {std::size_t{200}, std::size_t{12}}) {
    const LatencyMatrix other = net::small_synth(sites, 37);
    const net::KnnIndex knn{other};
    LocalSearchOptions options;
    options.objective = &objective;
    options.candidate_knn = 4;
    options.knn = &knn;
    EXPECT_THROW((void)local_search_placement(m, grid, initial, options),
                 std::invalid_argument)
        << "index over " << sites << " sites";
  }
}

TEST(LocalSearch, RejectsManyToOneInitial) {
  const LatencyMatrix m = net::small_synth(8, 29);
  const quorum::GridQuorum grid{2};
  const Placement many{{0, 0, 1, 2}};
  EXPECT_THROW((void)local_search_placement(m, grid, many), std::invalid_argument);
}

}  // namespace
}  // namespace qp::core
