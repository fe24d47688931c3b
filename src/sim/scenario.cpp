#include "sim/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "common/rng.hpp"
#include "core/response.hpp"
#include "sim/engine.hpp"

namespace qp::sim {

namespace {

/// World template the generator scales to any site count: Internet site
/// density circa the paper's datasets (US-heavy, strong EU, East Asia,
/// thinner everywhere else). Weights sum to 1.
struct RegionTemplate {
  const char* name;
  double latitude_deg;
  double longitude_deg;
  double spread_deg;
  double weight;
};

constexpr RegionTemplate kWorldTemplate[] = {
    {"us-east", 40.0, -75.0, 4.5, 0.18},   {"us-central", 41.0, -93.0, 5.0, 0.10},
    {"us-west", 37.0, -122.0, 4.0, 0.14},  {"eu-west", 51.0, 0.0, 4.5, 0.13},
    {"eu-central", 50.0, 10.0, 4.0, 0.08}, {"eu-north", 59.0, 18.0, 3.0, 0.04},
    {"asia-east", 35.5, 135.0, 5.0, 0.09}, {"asia-se", 1.3, 103.8, 2.5, 0.05},
    {"asia-south", 19.0, 77.0, 3.5, 0.05}, {"oceania", -33.8, 151.0, 3.0, 0.04},
    {"sa", -23.5, -46.6, 4.0, 0.05},       {"africa", 6.5, 3.4, 3.0, 0.03},
    {"middle-east", 25.0, 55.0, 3.0, 0.02},
};

/// Largest-remainder apportionment of `total` sites over the template
/// weights; deterministic (remainder ties break on template order).
std::vector<std::size_t> apportion_sites(std::size_t total) {
  constexpr std::size_t kRegions = std::size(kWorldTemplate);
  std::vector<std::size_t> counts(kRegions, 0);
  std::vector<std::pair<double, std::size_t>> remainders;
  remainders.reserve(kRegions);
  std::size_t assigned = 0;
  for (std::size_t i = 0; i < kRegions; ++i) {
    const double exact = kWorldTemplate[i].weight * static_cast<double>(total);
    counts[i] = static_cast<std::size_t>(exact);
    assigned += counts[i];
    remainders.emplace_back(exact - std::floor(exact), i);
  }
  std::stable_sort(remainders.begin(), remainders.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t i = 0; assigned < total; ++i) {
    ++counts[remainders[i % kRegions].second];
    ++assigned;
  }
  return counts;
}

/// Pareto(shape, 1) draws normalized to the requested mean. Sorted nothing,
/// one draw per site, deterministic in the rng stream.
std::vector<double> power_law_demand(std::size_t count, double shape, double mean,
                                     common::Rng& rng) {
  std::vector<double> demand(count);
  double sum = 0.0;
  for (double& d : demand) {
    // Inverse-CDF: (1 - u)^(-1/shape), u in [0, 1).
    d = std::pow(1.0 - rng.uniform(), -1.0 / shape);
    sum += d;
  }
  if (sum <= 0.0 || mean == 0.0) {
    std::fill(demand.begin(), demand.end(), mean);
    return demand;
  }
  const double scale = mean * static_cast<double>(count) / sum;
  for (double& d : demand) d *= scale;
  return demand;
}

}  // namespace

double Scenario::alpha() const noexcept {
  if (client_demand.empty()) return 0.0;
  const double total = std::accumulate(client_demand.begin(), client_demand.end(), 0.0);
  return core::kQuWriteServiceMs * (total / static_cast<double>(client_demand.size()));
}

core::LoadAwareObjective Scenario::load_objective() const {
  return core::LoadAwareObjective::for_demand(std::span<const double>{client_demand});
}

core::ClosestStrategyObjective Scenario::closest_objective() const {
  return core::ClosestStrategyObjective::for_demand(std::span<const double>{client_demand});
}

std::vector<double> Scenario::arrival_rates_for(double peak_rho, double service_time_ms,
                                                std::span<const double> site_load) const {
  return scale_rates_to_peak_utilization(client_demand, site_load, service_time_ms,
                                         peak_rho);
}

namespace {

/// Validates the config and expands the world template into the region list
/// the net/ generators consume; shared by the dense and sparse paths.
net::SyntheticConfig topology_config(const ScenarioConfig& config) {
  if (config.site_count == 0) {
    throw std::invalid_argument{"make_scenario: site_count must be positive"};
  }
  if (!(config.demand_shape > 1.0)) {
    throw std::invalid_argument{"make_scenario: demand_shape must exceed 1"};
  }
  if (config.mean_demand < 0.0) {
    throw std::invalid_argument{"make_scenario: mean_demand must be >= 0"};
  }
  net::SyntheticConfig topo;
  topo.seed = config.seed;
  const std::vector<std::size_t> counts = apportion_sites(config.site_count);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const RegionTemplate& region = kWorldTemplate[i];
    topo.regions.push_back(net::Region{region.name, region.latitude_deg,
                                       region.longitude_deg, region.spread_deg,
                                       counts[i]});
  }
  return topo;
}

}  // namespace

Scenario make_scenario(const ScenarioConfig& config) {
  const net::SyntheticConfig topo = topology_config(config);
  net::SyntheticTopology topology = net::generate_topology(topo);

  common::Rng demand_rng = common::Rng{config.seed}.fork(0xdeadbeef);
  return Scenario{config.name + "-" + std::to_string(config.site_count),
                  std::move(topology.matrix), std::move(topology.sites),
                  power_law_demand(config.site_count, config.demand_shape,
                                   config.mean_demand, demand_rng)};
}

Scenario synthetic500_scenario(std::uint64_t seed) {
  ScenarioConfig config;
  config.name = "synthetic";
  config.site_count = 500;
  config.seed = seed;
  return make_scenario(config);
}

core::ClosestStrategyObjective SparseScenario::closest_objective() const {
  return core::ClosestStrategyObjective::for_demand(std::span<const double>{client_demand});
}

SparseScenario make_sparse_scenario(const ScenarioConfig& config) {
  const net::SyntheticConfig topo = topology_config(config);
  net::SyntheticSites placed = net::generate_sites(topo);
  const std::size_t n = placed.sites.size();

  // 3-d Earth-chord coordinates, scaled so Euclidean distance reads directly
  // in round-trip milliseconds over inflated fiber routes. The chord slightly
  // underestimates the great-circle arc (< 1% under 4000 km, ~10% antipodal)
  // — the price of an exact low-dimensional metric.
  const double ms_per_km = 2.0 * net::kRouteInflationMean / net::kFiberKmPerMs;
  const double scale = net::kEarthRadiusKm * ms_per_km;
  std::vector<double> coords(3 * n);
  for (std::size_t i = 0; i < n; ++i) {
    const double lat = placed.sites[i].latitude_deg * std::numbers::pi / 180.0;
    const double lon = placed.sites[i].longitude_deg * std::numbers::pi / 180.0;
    coords[3 * i + 0] = scale * std::cos(lat) * std::cos(lon);
    coords[3 * i + 1] = scale * std::cos(lat) * std::sin(lon);
    coords[3 * i + 2] = scale * std::sin(lat);
  }
  net::LatencyEmbedding space{3, std::move(coords), std::move(placed.access_delay_ms),
                              net::kMinRttMs};

  common::Rng demand_rng = common::Rng{config.seed}.fork(0xdeadbeef);
  std::vector<double> demand = power_law_demand(n, config.demand_shape,
                                                config.mean_demand, demand_rng);
  return SparseScenario{config.name + "-" + std::to_string(n), std::move(space),
                        std::move(placed.sites), std::move(demand)};
}

Scenario daxlist161_scenario(std::uint64_t seed) {
  net::LatencyMatrix matrix = net::daxlist161_synth(seed);
  common::Rng demand_rng = common::Rng{seed}.fork(0xdeadbeef);
  const ScenarioConfig defaults;
  std::vector<double> demand = power_law_demand(matrix.size(), defaults.demand_shape,
                                                defaults.mean_demand, demand_rng);
  return Scenario{"daxlist-161", std::move(matrix), {}, std::move(demand)};
}

}  // namespace qp::sim
