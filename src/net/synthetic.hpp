// Synthetic wide-area latency matrices.
//
// The paper evaluates on two measured datasets we do not have access to:
//  * "Planetlab-50" — ping RTTs among 50 PlanetLab sites (Jul–Nov 2006), and
//  * "daxlist-161"  — King-estimated RTTs among 161 web servers.
//
// These generators reproduce the *statistical shape* those algorithms depend
// on: sites clustered on continents, RTT dominated by great-circle
// propagation through fiber (with route inflation), plus per-site access
// delays and lognormal measurement jitter, finally metric-closed so the
// result is a genuine distance function (the paper's d is shortest-path
// distance). Deterministic in the seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/latency_matrix.hpp"

namespace qp::net {

/// A geographic cluster of sites (roughly, a continent or coast).
struct Region {
  std::string name;
  double center_latitude_deg = 0.0;
  double center_longitude_deg = 0.0;
  /// Standard deviation of site scatter around the center, in degrees.
  double spread_deg = 5.0;
  /// Number of sites to place in this region.
  std::size_t site_count = 0;
};

struct SyntheticConfig {
  std::uint64_t seed = 1;
  std::vector<Region> regions;
  /// Per-site last-mile/access delay added to every RTT touching the site
  /// (one value per direction), drawn uniformly from [0.5, max] ms.
  double access_delay_max_ms = 6.0;
  /// Lognormal jitter multiplier: exp(N(0, sigma)) applied per pair.
  double jitter_sigma = 0.08;
};

/// Latitude/longitude of a generated site, exposed for visualization and
/// for tests that check the distance/geography correlation.
struct SiteLocation {
  std::string name;
  std::string region;
  double latitude_deg = 0.0;
  double longitude_deg = 0.0;
};

struct SyntheticTopology {
  LatencyMatrix matrix;
  std::vector<SiteLocation> sites;
};

/// Site placements plus per-site access delays — the O(n) part of the
/// generator, without the O(n^2) RTT stage. Input for topologies generated
/// directly in embedding space (sim/scenario sparse scenarios).
struct SyntheticSites {
  std::vector<SiteLocation> sites;
  std::vector<double> access_delay_ms;
};

/// Mean Earth radius (haversine / chord geometry), kilometers.
inline constexpr double kEarthRadiusKm = 6371.0;
/// Light in fiber travels ~200 km per millisecond.
inline constexpr double kFiberKmPerMs = 200.0;
/// Mean multiplier on great-circle propagation accounting for non-geodesic
/// routing (typical measured inflation is 1.5–2.5x). The dense generator
/// draws each pair's inflation uniformly within ±0.35 of it; sparse
/// scenarios (sim/scenario) use the mean.
inline constexpr double kRouteInflationMean = 1.9;
/// Floor for any inter-site RTT (two sites in one machine room), ms.
inline constexpr double kMinRttMs = 0.3;

/// Site placements and access delays of `config`, consuming the same seeded
/// streams as generate_topology — the locations match the dense generator
/// bitwise for the same config. O(n) time and memory; no RTT matrix.
[[nodiscard]] SyntheticSites generate_sites(const SyntheticConfig& config);

/// Generates a clustered WAN latency matrix per the config. Throws if the
/// config lists no sites.
[[nodiscard]] SyntheticTopology generate_topology(const SyntheticConfig& config);

/// 50 sites with a PlanetLab-like distribution (NA-heavy, EU, East Asia,
/// plus a few far-flung sites). Stands in for the paper's "Planetlab-50".
[[nodiscard]] LatencyMatrix planetlab50_synth(std::uint64_t seed = 20060701);

/// 161 sites with a commercial-web-server-like distribution (US coasts and
/// EU heavy). Stands in for the paper's "daxlist-161".
[[nodiscard]] LatencyMatrix daxlist161_synth(std::uint64_t seed = 20060702);

/// Small clustered topology for fast tests; `n` sites over three regions.
[[nodiscard]] LatencyMatrix small_synth(std::size_t n, std::uint64_t seed = 7);

}  // namespace qp::net
