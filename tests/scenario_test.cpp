// sim/scenario: seeded synthetic topologies + power-law demand, and the
// large-topology figure driver built on them.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "eval/figures.hpp"
#include "sim/scenario.hpp"
#include "support/net_oracles.hpp"

namespace qp::sim {
namespace {

using qp::net::test_support::satisfies_triangle_inequality;

TEST(Scenario, DeterministicInTheSeed) {
  ScenarioConfig config;
  config.site_count = 40;
  config.seed = 77;
  const Scenario a = make_scenario(config);
  const Scenario b = make_scenario(config);
  ASSERT_EQ(a.site_count(), 40u);
  ASSERT_EQ(b.site_count(), 40u);
  for (std::size_t i = 0; i < a.site_count(); ++i) {
    for (std::size_t j = 0; j < a.site_count(); ++j) {
      EXPECT_EQ(a.matrix.rtt(i, j), b.matrix.rtt(i, j)) << i << "," << j;
    }
  }
  EXPECT_EQ(a.client_demand, b.client_demand);

  config.seed = 78;
  const Scenario c = make_scenario(config);
  EXPECT_NE(a.client_demand, c.client_demand);
}

TEST(Scenario, MatrixIsAMetricWithNamedSites) {
  ScenarioConfig config;
  config.site_count = 35;
  const Scenario scenario = make_scenario(config);
  EXPECT_TRUE(satisfies_triangle_inequality(scenario.matrix, 1e-6));
  EXPECT_EQ(scenario.sites.size(), scenario.site_count());
}

TEST(Scenario, ApportionsEverySiteAcrossRegions) {
  for (std::size_t count : {1u, 7u, 13u, 100u, 500u}) {
    ScenarioConfig config;
    config.site_count = count;
    const Scenario scenario = make_scenario(config);
    EXPECT_EQ(scenario.site_count(), count);
    EXPECT_EQ(scenario.client_demand.size(), count);
  }
}

TEST(Scenario, PowerLawDemandIsHeavyTailedWithTheRequestedMean) {
  ScenarioConfig config;
  config.site_count = 400;
  config.mean_demand = 5'000.0;
  const Scenario scenario = make_scenario(config);
  for (double d : scenario.client_demand) EXPECT_GT(d, 0.0);
  const double total =
      std::accumulate(scenario.client_demand.begin(), scenario.client_demand.end(), 0.0);
  const double mean = total / static_cast<double>(scenario.client_demand.size());
  EXPECT_NEAR(mean, 5'000.0, 1e-6);
  // Heavy tail: the busiest client far exceeds the mean, and the top decile
  // carries a disproportionate share of the total demand.
  std::vector<double> sorted = scenario.client_demand;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_GT(sorted.back(), 4.0 * mean);
  const double top_decile = std::accumulate(sorted.end() - 40, sorted.end(), 0.0);
  EXPECT_GT(top_decile / total, 0.25);
}

TEST(Scenario, AlphaFollowsTheResponseModel) {
  ScenarioConfig config;
  config.site_count = 10;
  config.mean_demand = 16'000.0;
  const Scenario scenario = make_scenario(config);
  EXPECT_NEAR(scenario.alpha(), 0.007 * 16'000.0, 1e-6);
}

TEST(Scenario, RejectsBadConfigs) {
  ScenarioConfig config;
  config.site_count = 0;
  EXPECT_THROW((void)make_scenario(config), std::invalid_argument);
  config.site_count = 5;
  config.demand_shape = 1.0;
  EXPECT_THROW((void)make_scenario(config), std::invalid_argument);
  config.demand_shape = 1.5;
  config.mean_demand = -2.0;
  EXPECT_THROW((void)make_scenario(config), std::invalid_argument);
}

TEST(Scenario, Daxlist161ScenarioWrapsTheDataset) {
  const Scenario scenario = daxlist161_scenario();
  EXPECT_EQ(scenario.site_count(), 161u);
  EXPECT_EQ(scenario.client_demand.size(), 161u);
  EXPECT_EQ(scenario.name, "daxlist-161");
}

TEST(LargeTopologySweep, ConstructiveThenLocalOptimumRows) {
  ScenarioConfig config;
  config.site_count = 40;
  config.seed = 11;
  const Scenario scenario = make_scenario(config);
  eval::LargeTopologyConfig sweep;
  sweep.grid_side = 3;
  sweep.majority_universe = 9;
  sweep.majority_quorum = 5;
  sweep.anchor_count = 8;
  const auto points = eval::large_topology_sweep(scenario, sweep);
  // (constructive, local-opt) per (system, objective): 2 systems x
  // {load-aware, closest} x 2 stages.
  ASSERT_EQ(points.size(), 8u);
  std::size_t closest_rows = 0;
  for (std::size_t i = 0; i < points.size(); i += 2) {
    EXPECT_EQ(points[i].stage, "constructive");
    EXPECT_EQ(points[i + 1].stage, "local-opt");
    EXPECT_EQ(points[i].scenario, scenario.name);
    EXPECT_EQ(points[i].objective, points[i + 1].objective);
    EXPECT_TRUE(points[i].objective == "load-aware" || points[i].objective == "closest");
    closest_rows += points[i].objective == "closest" ? 2 : 0;
    // Local search never worsens the objective it optimizes.
    EXPECT_LE(points[i + 1].response_ms, points[i].response_ms + 1e-9);
    // (The historical response >= network-delay check no longer applies:
    // response_ms is now the demand-weighted objective while the delay
    // column stays the uniform balanced measure, and the closest objective
    // prices a cheaper argmin quorum.)
    EXPECT_GT(points[i].response_ms, 0.0);
    EXPECT_GT(points[i].network_delay_ms, 0.0);
    EXPECT_GT(points[i].alpha, 0.0);
  }
  EXPECT_EQ(closest_rows, 4u);

  eval::LargeTopologyConfig load_only = sweep;
  load_only.include_closest = false;
  EXPECT_EQ(eval::large_topology_sweep(scenario, load_only).size(), 4u);
}

TEST(LargeTopologySweep, RejectsUndersizedTopologies) {
  ScenarioConfig config;
  config.site_count = 10;
  const Scenario scenario = make_scenario(config);
  EXPECT_THROW((void)eval::large_topology_sweep(scenario), std::invalid_argument);
}

}  // namespace
}  // namespace qp::sim
