// Cross-module integration tests: run shrunken versions of the paper's
// experiments end-to-end and assert the qualitative shapes §6-§8 report.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <vector>

#include "eval/figures.hpp"
#include "eval/sweeps.hpp"
#include "net/synthetic.hpp"
#include "support/iterative_rows.hpp"

namespace qp::eval {
namespace {

using qp::eval::test_support::rows_for_stage;

const net::LatencyMatrix& topo16() {
  static const net::LatencyMatrix m = net::small_synth(16, 1006);
  return m;
}

// ------------------------------------------------------------- Fig 6.3 shape

TEST(Integration, LowDemandSweepCoversAllSystems) {
  const auto points = low_demand_sweep(topo16());
  std::map<std::string, int> rows;
  for (const auto& p : points) rows[p.system] += 1;
  EXPECT_EQ(rows["Singleton"], 1);
  EXPECT_GE(rows["Grid"], 2);           // k = 2..4 on 16 sites.
  EXPECT_GE(rows["(t+1,2t+1) Maj"], 3);
  EXPECT_GE(rows["(2t+1,3t+1) Maj"], 3);
  EXPECT_GE(rows["(4t+1,5t+1) Maj"], 2);
}

TEST(Integration, SingletonBestAndSmallQuorumsBeatLarge) {
  const auto points = low_demand_sweep(topo16());
  double singleton = 0.0;
  std::map<std::string, std::map<std::size_t, double>> series;
  for (const auto& p : points) {
    if (p.system == "Singleton") {
      singleton = p.response_ms;
    } else {
      series[p.system][p.universe] = p.response_ms;
    }
  }
  // The singleton is at least as good as every quorum system (Lin's bound is
  // about placements; the closest strategy at alpha=0 can only be worse than
  // the single best node).
  for (const auto& [system, by_universe] : series) {
    for (const auto& [universe, response] : by_universe) {
      EXPECT_GE(response + 1e-9, singleton)
          << system << " universe=" << universe;
    }
  }
  // At comparable universe sizes, the small-quorum (t+1,2t+1) majority beats
  // the large-quorum (4t+1,5t+1) majority (Fig 6.3's ordering).
  const auto& small_maj = series["(t+1,2t+1) Maj"];
  const auto& large_maj = series["(4t+1,5t+1) Maj"];
  ASSERT_FALSE(small_maj.empty());
  ASSERT_FALSE(large_maj.empty());
  // Compare at the closest universe sizes available: 11 vs 11 (t=5 / t=2).
  if (small_maj.count(11) && large_maj.count(11)) {
    EXPECT_LE(small_maj.at(11), large_maj.at(11) + 1e-9);
  }
  // Response grows with universe size within each majority family.
  for (const auto& [system, by_universe] : series) {
    if (by_universe.size() < 2 || system == "Grid") continue;
    EXPECT_LT(by_universe.begin()->second, std::prev(by_universe.end())->second + 15.0)
        << system;
  }
}

// --------------------------------------------------------- Fig 6.4/6.5 shape

TEST(Integration, BalancedWinsAtHighDemandClosestAtLowDemand) {
  const std::vector<double> demands{100.0, 16'000.0};
  const auto points = grid_demand_sweep(topo16(), demands, 3);
  std::map<std::pair<double, std::string>, std::map<std::size_t, double>> response;
  for (const auto& p : points) {
    response[{p.client_demand, p.strategy}][p.universe] = p.response_ms;
  }
  // Low demand: closest no worse than balanced for every universe size.
  auto low_closest = response[{100.0, "closest"}];
  auto low_balanced = response[{100.0, "balanced"}];
  for (const auto& [universe, r] : low_closest) {
    EXPECT_LE(r, low_balanced[universe] + 1e-9) << universe;
  }
  // High demand: balanced wins at the smallest universe size, where closest
  // concentrates all load on 3 nodes.
  const double high_balanced_4 = response[{16'000.0, "balanced"}][4];
  const double high_closest_4 = response[{16'000.0, "closest"}][4];
  EXPECT_LT(high_balanced_4, high_closest_4);
}

TEST(Integration, BalancedLoadComponentShrinksWithUniverseAtHighDemand) {
  // Fig 6.5's mechanism: under demand = 16000 the balanced strategy's LOAD
  // component (response - network delay) shrinks as the universe grows,
  // while the network-delay component increases. (The full "response
  // decreases" crossover needs the 161-site topology's dispersion headroom;
  // the fig6_5 bench checks that on daxlist-161.)
  const std::vector<double> demands{16'000.0};
  const auto points = grid_demand_sweep(topo16(), demands, 4);
  std::map<std::size_t, double> load_component, network;
  for (const auto& p : points) {
    if (p.strategy != "balanced") continue;
    load_component[p.universe] = p.response_ms - p.network_delay_ms;
    network[p.universe] = p.network_delay_ms;
  }
  ASSERT_GE(load_component.size(), 2u);
  EXPECT_GT(load_component.begin()->second, std::prev(load_component.end())->second);
  EXPECT_LT(network.begin()->second, std::prev(network.end())->second);
}

// --------------------------------------------------------- Fig 7.6/7.7 shape

TEST(Integration, CapacitySweepTradesDelayForLoad) {
  CapacitySweepConfig config;
  config.min_side = 3;
  config.max_side = 3;
  config.levels = 5;
  config.client_demand = 16'000.0;
  const auto points = capacity_sweep(topo16(), config);
  ASSERT_EQ(points.size(), 5u);
  for (const auto& p : points) ASSERT_TRUE(p.feasible);
  // Network delay is non-increasing in capacity (more freedom to go close);
  // at this demand the response is higher at the loosest capacity than the
  // tightest (hot nodes dominate).
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_LE(points[i].network_delay_ms, points[i - 1].network_delay_ms + 1e-6);
  }
  EXPECT_GT(points.back().response_ms, points.front().response_ms - 1e-9);
}

TEST(Integration, NonuniformCapacitiesHelpAtLooseCapacity) {
  CapacitySweepConfig config;
  config.min_side = 3;
  config.max_side = 3;
  config.levels = 5;
  config.client_demand = 16'000.0;
  config.include_nonuniform = true;
  const auto points = capacity_sweep(topo16(), config);
  // Pair uniform/non-uniform rows at each level.
  std::map<double, std::pair<double, double>> by_level;  // level -> (uni, non).
  for (const auto& p : points) {
    ASSERT_TRUE(p.feasible);
    if (p.nonuniform) {
      by_level[p.capacity_level].second = p.response_ms;
    } else {
      by_level[p.capacity_level].first = p.response_ms;
    }
  }
  // Fig 7.7: at the loosest capacity the non-uniform heuristic is at least
  // as good as uniform; at the tightest the two are nearly identical.
  const auto& tightest = by_level.begin()->second;
  EXPECT_NEAR(tightest.first, tightest.second, 0.35 * tightest.first);
  const auto& loosest = std::prev(by_level.end())->second;
  EXPECT_LE(loosest.second, loosest.first + 1e-6);
}

// ------------------------------------------------------------- Fig 8.9 shape

TEST(Integration, IterativeSweepShapes) {
  IterativeSweepConfig config;
  config.side = 2;
  config.levels = 3;
  config.anchor_count = 6;
  const auto points = iterative_sweep(topo16(), config);

  const auto one_to_one = rows_for_stage(points, "one-to-one");
  const auto phase1 = rows_for_stage(points, "iter1-phase1");
  const auto phase2 = rows_for_stage(points, "iter1-phase2");
  ASSERT_EQ(one_to_one.size(), 3u);
  ASSERT_EQ(phase1.size(), 3u);
  ASSERT_EQ(phase2.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    // Many-to-one beats one-to-one on network delay; phase 2 never hurts.
    EXPECT_LE(phase1[i].network_delay_ms, one_to_one[i].network_delay_ms + 1e-6);
    EXPECT_LE(phase2[i].network_delay_ms, phase1[i].network_delay_ms + 1e-6);
  }
}

// ----------------------------------------------------------------- Fig 3.x

TEST(Integration, QuSimulationShapes) {
  QuSweepConfig config;
  config.t_values = {1, 2};
  config.client_counts = {4, 40};
  config.client_site_count = 4;
  config.duration_ms = 3000.0;
  config.warmup_ms = 300.0;
  const auto points = qu_response_surface(topo16(), config);
  ASSERT_EQ(points.size(), 4u);

  std::map<std::pair<std::size_t, std::size_t>, QuPoint> by_key;
  for (const auto& p : points) by_key[{p.t, p.clients}] = p;

  const QuPoint t1_light = by_key[{1, 4}];
  const QuPoint t1_heavy = by_key[{1, 40}];
  const QuPoint t2_light = by_key[{2, 4}];
  // Response grows with client count at fixed t (Fig 3.2b).
  EXPECT_GT(t1_heavy.response_ms, t1_light.response_ms);
  // Network delay grows with t at fixed clients (Fig 3.2a) — bigger quorums
  // reach farther.
  EXPECT_GT(t2_light.network_delay_ms, t1_light.network_delay_ms);
  // Response is bounded below by network delay everywhere.
  for (const auto& p : points) EXPECT_GE(p.response_ms, p.network_delay_ms);
}

// ------------------------------------------------------------------ CSV IO

TEST(Integration, CsvPrintersProduceHeadersAndRows) {
  std::ostringstream out;
  print_csv(out, std::vector<LowDemandPoint>{{"Grid", 4, 10.0}});
  EXPECT_EQ(out.str(), "system,universe,response_ms\nGrid,4,10\n");

  std::ostringstream out2;
  print_csv(out2, std::vector<IterativePoint>{{0.5, "one-to-one", 42.0, 43.0}});
  EXPECT_NE(out2.str().find("one-to-one"), std::string::npos);
}

}  // namespace
}  // namespace qp::eval
