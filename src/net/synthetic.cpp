#include "net/synthetic.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "common/rng.hpp"

namespace qp::net {

namespace {

/// Uniform half-width of each pair's route inflation around
/// kRouteInflationMean.
constexpr double kRouteInflationSpread = 0.35;
/// Lower end of the uniform per-site access delay, ms.
constexpr double kAccessDelayMinMs = 0.5;

double deg2rad(double deg) noexcept { return deg * std::numbers::pi / 180.0; }

/// Places sites and draws access delays, consuming forks 1 and 2 of `rng` —
/// shared by generate_topology (which continues with fork 3 for the pair
/// stream) and generate_sites, so both produce bitwise-identical locations.
SyntheticSites place_sites(const SyntheticConfig& config, common::Rng& rng) {
  std::size_t total = 0;
  for (const Region& region : config.regions) total += region.site_count;
  if (total == 0) throw std::invalid_argument{"generate_topology: no sites configured"};

  common::Rng placement_rng = rng.fork(1);
  common::Rng access_rng = rng.fork(2);

  std::vector<SiteLocation> sites;
  sites.reserve(total);
  for (const Region& region : config.regions) {
    for (std::size_t i = 0; i < region.site_count; ++i) {
      SiteLocation site;
      site.region = region.name;
      site.name = region.name + "-" + std::to_string(i);
      site.latitude_deg = region.center_latitude_deg +
                          placement_rng.normal(0.0, region.spread_deg);
      site.latitude_deg = std::clamp(site.latitude_deg, -85.0, 85.0);
      site.longitude_deg = region.center_longitude_deg +
                           placement_rng.normal(0.0, region.spread_deg * 1.4);
      // Wrap longitude into [-180, 180).
      while (site.longitude_deg >= 180.0) site.longitude_deg -= 360.0;
      while (site.longitude_deg < -180.0) site.longitude_deg += 360.0;
      sites.push_back(std::move(site));
    }
  }

  std::vector<double> access_ms(total);
  for (double& a : access_ms) {
    a = access_rng.uniform(kAccessDelayMinMs, config.access_delay_max_ms);
  }
  return SyntheticSites{std::move(sites), std::move(access_ms)};
}

/// Great-circle distance in kilometers (haversine, mean Earth radius).
double great_circle_km(double lat1_deg, double lon1_deg, double lat2_deg,
                       double lon2_deg) noexcept {
  const double lat1 = deg2rad(lat1_deg);
  const double lat2 = deg2rad(lat2_deg);
  const double dlat = lat2 - lat1;
  const double dlon = deg2rad(lon2_deg - lon1_deg);
  const double a = std::sin(dlat / 2) * std::sin(dlat / 2) +
                   std::cos(lat1) * std::cos(lat2) * std::sin(dlon / 2) * std::sin(dlon / 2);
  return 2.0 * kEarthRadiusKm * std::asin(std::min(1.0, std::sqrt(a)));
}

}  // namespace

SyntheticSites generate_sites(const SyntheticConfig& config) {
  common::Rng rng{config.seed};
  return place_sites(config, rng);
}

SyntheticTopology generate_topology(const SyntheticConfig& config) {
  common::Rng rng{config.seed};
  SyntheticSites placed = place_sites(config, rng);
  common::Rng pair_rng = rng.fork(3);
  std::vector<SiteLocation>& sites = placed.sites;
  std::vector<double>& access_ms = placed.access_delay_ms;
  const std::size_t total = sites.size();

  std::vector<std::vector<double>> rtt(total, std::vector<double>(total, 0.0));
  for (std::size_t i = 0; i < total; ++i) {
    for (std::size_t j = i + 1; j < total; ++j) {
      const double km = great_circle_km(sites[i].latitude_deg, sites[i].longitude_deg,
                                        sites[j].latitude_deg, sites[j].longitude_deg);
      const double inflation = kRouteInflationMean +
                               pair_rng.uniform(-kRouteInflationSpread, kRouteInflationSpread);
      const double propagation_rtt = 2.0 * km / kFiberKmPerMs * inflation;
      const double jitter = pair_rng.lognormal(0.0, config.jitter_sigma);
      double value = (propagation_rtt + access_ms[i] + access_ms[j]) * jitter;
      value = std::max(value, kMinRttMs);
      rtt[i][j] = rtt[j][i] = value;
    }
  }

  std::vector<std::string> names(total);
  for (std::size_t i = 0; i < total; ++i) names[i] = sites[i].name;

  // Metric-close so the matrix is a true distance function (the paper's d is
  // a shortest-path metric; raw measurements violate triangles).
  LatencyMatrix matrix = LatencyMatrix{std::move(rtt), std::move(names)}.metric_closure();
  return SyntheticTopology{std::move(matrix), std::move(sites)};
}

LatencyMatrix planetlab50_synth(std::uint64_t seed) {
  SyntheticConfig config;
  config.seed = seed;
  // PlanetLab circa 2006: dominated by US universities, strong EU presence,
  // an East-Asia cluster, and a handful of far-flung sites.
  config.regions = {
      {"us-east", 40.5, -74.5, 3.5, 12},
      {"us-central", 41.5, -93.0, 4.0, 6},
      {"us-west", 37.5, -122.0, 3.0, 8},
      {"eu-west", 50.5, 4.5, 4.0, 9},
      {"eu-south", 44.0, 9.0, 3.0, 4},
      {"asia-east", 35.5, 135.0, 4.5, 6},
      {"asia-south", 22.5, 114.0, 2.5, 2},
      {"oceania", -33.8, 151.0, 2.0, 2},
      {"sa", -23.5, -46.6, 2.0, 1},
  };
  return generate_topology(config).matrix;
}

LatencyMatrix daxlist161_synth(std::uint64_t seed) {
  SyntheticConfig config;
  config.seed = seed;
  // Commercial web servers (daxlist): very US-heavy with large EU share;
  // King estimates are noisier than pings, hence the higher jitter.
  config.jitter_sigma = 0.14;
  config.access_delay_max_ms = 9.0;
  config.regions = {
      {"us-east", 39.5, -77.0, 4.5, 44},
      {"us-central", 41.0, -95.0, 5.0, 22},
      {"us-west", 37.0, -121.0, 4.0, 30},
      {"eu-west", 51.0, 0.0, 4.5, 26},
      {"eu-central", 50.0, 10.0, 4.0, 12},
      {"asia-east", 35.0, 137.0, 5.0, 14},
      {"asia-south", 19.0, 77.0, 3.0, 4},
      {"oceania", -35.0, 149.0, 3.0, 5},
      {"sa", -25.0, -50.0, 4.0, 4},
  };
  return generate_topology(config).matrix;
}

LatencyMatrix small_synth(std::size_t n, std::uint64_t seed) {
  if (n == 0) throw std::invalid_argument{"small_synth: n must be positive"};
  SyntheticConfig config;
  config.seed = seed;
  const std::size_t third = n / 3;
  config.regions = {
      {"us", 40.0, -90.0, 5.0, n - 2 * third},
      {"eu", 50.0, 5.0, 4.0, third},
      {"asia", 35.0, 135.0, 4.0, third},
  };
  return generate_topology(config).matrix;
}

}  // namespace qp::net
