// Unit tests for the eval drivers themselves (configuration handling,
// row bookkeeping, helper behavior) — the figure *shapes* are asserted in
// integration_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "eval/figures.hpp"
#include "eval/sweeps.hpp"
#include "net/synthetic.hpp"

namespace qp::eval {
namespace {

const net::LatencyMatrix& topo12() {
  static const net::LatencyMatrix m = net::small_synth(12, 2024);
  return m;
}

TEST(Figures, CentralSitesSortedByAverageRtt) {
  const auto sites = central_sites(topo12(), 5);
  ASSERT_EQ(sites.size(), 5u);
  // Every returned site has average RTT no larger than every excluded site.
  std::set<std::size_t> chosen(sites.begin(), sites.end());
  double worst_chosen = 0.0;
  for (std::size_t s : sites) {
    worst_chosen = std::max(worst_chosen, net::average_rtt_from(topo12(), s));
  }
  for (std::size_t s = 0; s < topo12().size(); ++s) {
    if (!chosen.count(s)) {
      EXPECT_GE(net::average_rtt_from(topo12(), s) + 1e-12, worst_chosen);
    }
  }
  // Count is clamped to the topology size.
  EXPECT_EQ(central_sites(topo12(), 99).size(), topo12().size());
}

TEST(Figures, GridDemandSweepRespectsMaxSide) {
  const std::vector<double> demands{1000.0};
  const auto points = grid_demand_sweep(topo12(), demands, 2);
  for (const auto& p : points) EXPECT_EQ(p.universe, 4u);
  // Two strategies per (universe, demand) pair.
  EXPECT_EQ(points.size(), 2u);
}

TEST(Figures, GridDemandSweepAutoSide) {
  const std::vector<double> demands{1000.0};
  const auto points = grid_demand_sweep(topo12(), demands, 0);
  std::set<std::size_t> universes;
  for (const auto& p : points) universes.insert(p.universe);
  // 12 sites: k = 2 and k = 3 fit.
  EXPECT_EQ(universes, (std::set<std::size_t>{4, 9}));
}

TEST(Figures, CapacitySweepRowCountAndFlags) {
  CapacitySweepConfig config;
  config.min_side = 2;
  config.max_side = 3;
  config.levels = 4;
  config.include_nonuniform = true;
  const auto points = capacity_sweep(topo12(), config);
  // 2 sides x 4 levels x 2 variants.
  EXPECT_EQ(points.size(), 16u);
  std::size_t nonuniform = 0;
  for (const auto& p : points) nonuniform += p.nonuniform;
  EXPECT_EQ(nonuniform, 8u);
  for (const auto& p : points) {
    EXPECT_TRUE(p.feasible);
    EXPECT_GT(p.response_ms, 0.0);
    EXPECT_GE(p.response_ms + 1e-9, p.network_delay_ms);
  }
}

TEST(Figures, QuSweepSkipsOversizedUniverses) {
  QuSweepConfig config;
  config.t_values = {1, 2, 3};  // t=3 needs n=16 > 12 sites: skipped.
  config.client_counts = {4};
  config.client_site_count = 4;
  config.duration_ms = 500.0;
  config.warmup_ms = 100.0;
  const auto points = qu_response_surface(topo12(), config);
  EXPECT_EQ(points.size(), 2u);
  for (const auto& p : points) {
    EXPECT_EQ(p.universe, 5 * p.t + 1);
    EXPECT_GT(p.throughput_rps, 0.0);
  }
}

TEST(Figures, QuSweepClientRoundingIsConsistent) {
  QuSweepConfig config;
  config.t_values = {1};
  config.client_counts = {6};  // 6 / 4 sites -> 1 per site -> 4 clients.
  config.client_site_count = 4;
  config.duration_ms = 500.0;
  config.warmup_ms = 100.0;
  const auto points = qu_response_surface(topo12(), config);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].clients, 4u);
}

TEST(Figures, QuSurfaceStaysInsideTheRecordedBand) {
  // Golden Q/U surface, recorded with the former dedicated closed-loop
  // simulator before the §3 sweep moved onto the engine's closed-loop
  // clients. The engine cannot replay that simulator's rng stream, so the
  // pin is statistical: per point, the engine's mean over the same five
  // seeds must lie within 2x the recorded seed-to-seed range of the golden
  // mean. The recorded spreads (sample sd / range as % of the mean,
  // response then network delay):
  //   t=1,   4 clients: sd 0.245 / 0.250 ms, range 0.36% / 0.37%
  //   t=1, 200 clients: sd 0.531 / 0.015 ms, range 0.55% / 0.03%
  //   t=2,   4 clients: sd 0.192 / 0.182 ms, range 0.33% / 0.33%
  //   t=2, 200 clients: sd 1.430 / 0.033 ms, range 1.41% / 0.06%
  // All under 5% of their value, so the 3 s window needs no lengthening.
  // 200 clients saturate the servers (response ~1.6x network delay); 4
  // leave them nearly idle.
  struct Golden {
    std::size_t t;
    std::size_t clients;
    double response_ms;
    double response_range_ms;
    double network_ms;
    double network_range_ms;
  };
  const Golden golden[] = {
      {1, 4, 136.207, 0.488, 134.895, 0.496},
      {1, 200, 217.985, 1.206, 135.107, 0.040},
      {2, 4, 141.774, 0.470, 140.439, 0.461},
      {2, 200, 212.942, 3.005, 140.514, 0.079},
  };
  const net::LatencyMatrix matrix = net::small_synth(16, 1006);
  constexpr std::uint64_t kSeeds = 5;
  std::vector<QuPoint> points;
  std::vector<double> response(std::size(golden), 0.0);
  std::vector<double> network(std::size(golden), 0.0);
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    QuSweepConfig config;
    config.t_values = {1, 2};
    config.client_counts = {4, 200};
    config.client_site_count = 4;
    config.duration_ms = 3000.0;
    config.warmup_ms = 300.0;
    config.service_time_ms = 1.3;  // The fig3 benches' setting.
    config.seed = seed;
    points = qu_response_surface(matrix, config);
    ASSERT_EQ(points.size(), std::size(golden));
    for (std::size_t i = 0; i < points.size(); ++i) {
      response[i] += points[i].response_ms / static_cast<double>(kSeeds);
      network[i] += points[i].network_delay_ms / static_cast<double>(kSeeds);
    }
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Golden& g = golden[i];
    ASSERT_EQ(points[i].t, g.t);
    ASSERT_EQ(points[i].clients, g.clients);
    EXPECT_NEAR(response[i], g.response_ms, 2.0 * g.response_range_ms)
        << "t=" << g.t << " clients=" << g.clients;
    EXPECT_NEAR(network[i], g.network_ms, 2.0 * g.network_range_ms)
        << "t=" << g.t << " clients=" << g.clients;
  }
}

TEST(Figures, IterativeSweepStageRows) {
  IterativeSweepConfig config;
  config.side = 2;
  config.levels = 2;
  config.anchor_count = 4;
  const auto points = iterative_sweep(topo12(), config);
  // Every capacity level emits a one-to-one row plus phase rows.
  EXPECT_EQ(rows_for_stage(points, "one-to-one").size(), 2u);
  EXPECT_EQ(rows_for_stage(points, "iter1-phase1").size(), 2u);
  EXPECT_EQ(rows_for_stage(points, "iter1-phase2").size(), 2u);
  EXPECT_TRUE(rows_for_stage(points, "bogus").empty());
  // One-to-one rows are identical across levels (the baseline ignores caps).
  const auto baseline = rows_for_stage(points, "one-to-one");
  EXPECT_DOUBLE_EQ(baseline[0].network_delay_ms, baseline[1].network_delay_ms);
}

TEST(Figures, IterativeSweepRejectsOversizedGrid) {
  IterativeSweepConfig config;
  config.side = 4;  // 16 > 12 sites.
  EXPECT_THROW((void)iterative_sweep(topo12(), config), std::invalid_argument);
}

TEST(PointShard, ParsesOneBasedSpecs) {
  EXPECT_EQ(parse_point_shard(nullptr).count, 1u);
  EXPECT_EQ(parse_point_shard("").count, 1u);
  const PointShard shard = parse_point_shard("2/4");
  EXPECT_EQ(shard.index, 1u);
  EXPECT_EQ(shard.count, 4u);
  EXPECT_FALSE(shard.contains(0));
  EXPECT_TRUE(shard.contains(1));
  EXPECT_TRUE(shard.contains(5));
  EXPECT_TRUE(PointShard{}.contains(17));
  EXPECT_THROW((void)parse_point_shard("0/4"), std::invalid_argument);
  EXPECT_THROW((void)parse_point_shard("5/4"), std::invalid_argument);
  EXPECT_THROW((void)parse_point_shard("banana"), std::invalid_argument);
  EXPECT_THROW((void)parse_point_shard("2/4x"), std::invalid_argument);
  // Signed specs must throw, not wrap through std::stoul.
  EXPECT_THROW((void)parse_point_shard("2/-1"), std::invalid_argument);
  EXPECT_THROW((void)parse_point_shard("-1/4"), std::invalid_argument);
  EXPECT_THROW((void)parse_point_shard("+2/4"), std::invalid_argument);
}

TEST(PointShard, EmptyShardSkipsTheIterativeBaseline) {
  IterativeSweepConfig config;
  config.side = 2;
  config.levels = 2;
  config.anchor_count = 4;
  config.shard = PointShard{7, 8};  // Selects none of the 2 levels.
  EXPECT_TRUE(iterative_sweep(topo12(), config).empty());
}

TEST(PointShard, GridDemandShardsPartitionTheFullSweep) {
  // Interleaved shards of one figure reassemble exactly the unsharded rows.
  const std::vector<double> demands{1000.0, 4000.0, 16000.0};
  const auto full = grid_demand_sweep(topo12(), demands, 0);
  std::vector<GridDemandPoint> merged;
  for (std::size_t i = 0; i < 2; ++i) {
    const auto part = grid_demand_sweep(topo12(), demands, 0, {}, PointShard{i, 2});
    merged.insert(merged.end(), part.begin(), part.end());
    EXPECT_LT(part.size(), full.size());
  }
  ASSERT_EQ(merged.size(), full.size());
  // Same multiset of rows (shards interleave, so order differs).
  const auto key = [](const GridDemandPoint& p) {
    return std::tuple<std::size_t, double, std::string>{p.universe, p.client_demand,
                                                        p.strategy};
  };
  std::vector<std::tuple<std::size_t, double, std::string>> full_keys;
  std::vector<std::tuple<std::size_t, double, std::string>> merged_keys;
  for (const auto& p : full) full_keys.push_back(key(p));
  for (const auto& p : merged) merged_keys.push_back(key(p));
  std::sort(full_keys.begin(), full_keys.end());
  std::sort(merged_keys.begin(), merged_keys.end());
  EXPECT_EQ(full_keys, merged_keys);
  // Shard values equal the unsharded values exactly (same placements, same
  // arithmetic).
  for (const auto& p : merged) {
    const auto match = std::find_if(full.begin(), full.end(), [&](const auto& q) {
      return key(q) == key(p);
    });
    ASSERT_NE(match, full.end());
    EXPECT_EQ(p.response_ms, match->response_ms);
    EXPECT_EQ(p.network_delay_ms, match->network_delay_ms);
  }
}

TEST(PointShard, CapacityAndIterativeSweepsShard) {
  CapacitySweepConfig capacity;
  capacity.min_side = 2;
  capacity.max_side = 3;
  capacity.levels = 4;
  const auto full = capacity_sweep(topo12(), capacity);
  std::size_t sharded_total = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    capacity.shard = PointShard{i, 4};
    sharded_total += capacity_sweep(topo12(), capacity).size();
  }
  EXPECT_EQ(sharded_total, full.size());

  IterativeSweepConfig iterative;
  iterative.side = 2;
  iterative.levels = 2;
  iterative.anchor_count = 4;
  iterative.shard = PointShard{0, 2};
  const auto half = iterative_sweep(topo12(), iterative);
  EXPECT_EQ(rows_for_stage(half, "one-to-one").size(), 1u);
}

TEST(Figures, GridDemandConstantProfileReproducesUniformExactly) {
  // The demand-weighted sweep with a constant profile must reproduce the
  // uniform-demand rows bitwise (the PR-3 regression parity guarantee).
  const std::vector<double> demands{1000.0, 16000.0};
  const auto uniform = grid_demand_sweep(topo12(), demands, 3);
  const std::vector<double> constant_profile(topo12().size(), 7.5);
  const auto weighted = grid_demand_sweep(topo12(), demands, 3, constant_profile);
  ASSERT_EQ(weighted.size(), uniform.size());
  for (std::size_t i = 0; i < uniform.size(); ++i) {
    EXPECT_EQ(weighted[i].response_ms, uniform[i].response_ms) << "row " << i;
    EXPECT_EQ(weighted[i].network_delay_ms, uniform[i].network_delay_ms) << "row " << i;
    EXPECT_EQ(weighted[i].strategy, uniform[i].strategy) << "row " << i;
  }
  // A genuinely skewed profile changes the evaluations.
  std::vector<double> skewed(topo12().size(), 1.0);
  skewed[0] = 500.0;
  const auto skewed_rows = grid_demand_sweep(topo12(), demands, 3, skewed);
  bool any_differs = false;
  for (std::size_t i = 0; i < uniform.size(); ++i) {
    any_differs = any_differs || skewed_rows[i].response_ms != uniform[i].response_ms;
  }
  EXPECT_TRUE(any_differs);
}

TEST(Figures, CsvEscapesNothingButIsParseable) {
  std::ostringstream out;
  print_csv(out, std::vector<GridDemandPoint>{{9, 1000.0, "closest", 12.5, 10.0}});
  EXPECT_EQ(out.str(),
            "universe,client_demand,strategy,response_ms,network_delay_ms\n"
            "9,1000,closest,12.5,10\n");
  std::ostringstream out2;
  print_csv(out2, std::vector<QuPoint>{{1, 6, 40, 90.0, 95.0, 400.0}});
  EXPECT_NE(out2.str().find("1,6,40,90,95,400"), std::string::npos);
  std::ostringstream out3;
  print_csv(out3, std::vector<CapacityPoint>{{9, 0.5, true, 100.0, 90.0, true}});
  EXPECT_NE(out3.str().find("9,0.5,1,1,100,90"), std::string::npos);
}

template <typename Point>
std::string csv_header() {
  std::ostringstream out;
  print_csv(out, std::span<const Point>{});
  return out.str();
}

// The header of every eval:: point type, as the figure CSVs print it today.
// The bench counters carry the same names, so a renamed or reordered column
// fails here rather than silently changing a figure's CSV or its JSON.
TEST(Figures, CsvHeadersArePinned) {
  EXPECT_EQ(csv_header<QuPoint>(),
            "t,universe,clients,network_delay_ms,response_ms,throughput_rps\n");
  EXPECT_EQ(csv_header<LowDemandPoint>(), "system,universe,response_ms\n");
  EXPECT_EQ(csv_header<GridDemandPoint>(),
            "universe,client_demand,strategy,response_ms,network_delay_ms\n");
  EXPECT_EQ(csv_header<CapacityPoint>(),
            "universe,capacity_level,nonuniform,feasible,response_ms,network_delay_ms\n");
  EXPECT_EQ(csv_header<IterativePoint>(),
            "capacity_level,stage,network_delay_ms,response_ms\n");
  EXPECT_EQ(csv_header<LargeTopologyPoint>(),
            "scenario,system,objective,stage,alpha,response_ms,network_delay_ms,moves,"
            "stage_ms\n");
  EXPECT_EQ(csv_header<SimValidationPoint>(),
            "scenario,system,strategy,arrivals,target_rho,analytic_ms,simulated_ms,"
            "divergence_pct,p50_ms,p95_ms,p99_ms,peak_utilization,completed,"
            "dropped_messages,outage,fault,unavailability_analytic,unavailability_sim,"
            "retries,abandoned\n");
}

}  // namespace
}  // namespace qp::eval
