// Seeded synthetic workload scenarios: a latency topology plus a per-client
// demand vector, the unit the large-topology evaluations consume.
//
// The paper's evaluation stops at 161 sites with uniform client demand; the
// ROADMAP's "millions of users" trajectory needs larger topologies and
// skewed workloads. A Scenario bundles
//   * a metric-closed WAN latency matrix (net/synthetic embedded-coordinate
//     generator, scaled to any site count across a world template of
//     regions), and
//   * a power-law (Pareto) per-client demand vector, normalized to a chosen
//     mean — real client populations are heavy-tailed, not uniform.
// Everything is deterministic in one 64-bit seed.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/objective.hpp"
#include "net/embedding.hpp"
#include "net/latency_matrix.hpp"
#include "net/synthetic.hpp"

namespace qp::sim {

struct ScenarioConfig {
  std::string name = "synthetic";
  /// Total sites, distributed across the world template proportionally.
  std::size_t site_count = 500;
  std::uint64_t seed = 20070601;
  /// Pareto shape of the per-client demand distribution; must exceed 1 so
  /// the mean exists. Smaller = heavier tail (1.6 gives a top-1% share of
  /// roughly a quarter of the total demand).
  double demand_shape = 1.6;
  /// Mean per-client demand in requests/sec after normalization; the §7
  /// response model maps this to alpha = kQuWriteServiceMs * demand.
  double mean_demand = 8'000.0;
};

struct Scenario {
  std::string name;
  net::LatencyMatrix matrix;
  /// Generated coordinates (empty for dataset-backed scenarios).
  std::vector<net::SiteLocation> sites;
  /// Per-client demand, requests/sec; one entry per site.
  std::vector<double> client_demand;

  [[nodiscard]] std::size_t site_count() const noexcept { return matrix.size(); }
  /// The §7 response-model coefficient for this workload:
  /// kQuWriteServiceMs times the mean client demand.
  [[nodiscard]] double alpha() const noexcept;

  /// Demand-weighted search objectives of this workload: per-client weights
  /// from client_demand, alpha from the mean demand. load_objective is the
  /// §7 balanced-strategy response time, closest_objective the §6
  /// closest-strategy one.
  [[nodiscard]] core::LoadAwareObjective load_objective() const;
  [[nodiscard]] core::ClosestStrategyObjective closest_objective() const;

  /// Open-loop per-client arrival rates (requests/ms) for the queueing
  /// engine (sim/engine): the demand vector's shape, scaled so the busiest
  /// site reaches utilization `peak_rho`. `site_load` is the per-access
  /// demand-share-weighted site load of the strategy being simulated
  /// (e.g. the scenario objective's site_loads for a placement), which
  /// turns raw demand — far beyond what one server core serves — into a
  /// simulable workload at a controlled operating point.
  [[nodiscard]] std::vector<double> arrival_rates_for(
      double peak_rho, double service_time_ms, std::span<const double> site_load) const;
};

/// Generates the scenario for `config`. Throws on zero sites, a shape <= 1,
/// or a negative mean demand.
[[nodiscard]] Scenario make_scenario(const ScenarioConfig& config = {});

/// The canned 500-site scenario of the large-topology benchmark.
[[nodiscard]] Scenario synthetic500_scenario(std::uint64_t seed = 20070601);

/// daxlist-161 stand-in (161 sites) with power-law demand on top.
[[nodiscard]] Scenario daxlist161_scenario(std::uint64_t seed = 20060702);

/// A scenario generated directly in embedding space — the 10k-50k-site
/// regime where a dense matrix (n^2 doubles) is off the table. Sites are
/// placed exactly like make_scenario's (same world template, same seeded
/// streams, so the locations match the dense generator bitwise for equal
/// site counts); RTTs are modeled as
///
///   rtt(i, j) = max(net::kMinRttMs, chord_ms(i, j) + access_i + access_j)
///
/// with chord_ms the 3-d Earth-chord distance scaled to round-trip fiber
/// milliseconds at net::kRouteInflationMean, and the per-site access delays
/// as Vivaldi heights. Unlike the dense generator there is no per-pair
/// jitter or inflation spread — the embedding IS the ground truth, which is
/// what makes O(n) generation possible at all. Memory is O(n * 3).
struct SparseScenario {
  std::string name;
  net::LatencyEmbedding space;
  /// Generated coordinates, one per site.
  std::vector<net::SiteLocation> sites;
  /// Per-client demand, requests/sec; one entry per site.
  std::vector<double> client_demand;

  [[nodiscard]] std::size_t site_count() const noexcept { return space.size(); }
  /// Demand-weighted §6 closest-strategy search objective of this workload.
  [[nodiscard]] core::ClosestStrategyObjective closest_objective() const;
};

/// Generates the sparse scenario: `site_count` sites over the world
/// template, power-law demand. Same validation as make_scenario.
[[nodiscard]] SparseScenario make_sparse_scenario(const ScenarioConfig& config);

}  // namespace qp::sim
