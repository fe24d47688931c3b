// Experiment drivers, one per figure of the paper's evaluation. Each driver
// returns typed rows whose columns(f) member names every column once, in
// CSV order; eval::print_csv (eval/sweeps.hpp) and the bench emitter turn
// that one list into the CSV and the google-benchmark counters, and the
// integration tests assert the qualitative shapes the paper reports.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/latency_space.hpp"
#include "sim/scenario.hpp"

namespace qp::eval {

// ------------------------------------------------- per-point sharding

/// Interleaved point-range selection *below* figure granularity: a sweep
/// evaluates only the points whose (deterministic) enumeration index i has
/// i % count == index. The default {0, 1} selects everything, producing
/// byte-identical output to an unsharded run; disjoint shards of one figure
/// recombine with bench/merge_shards.py (JSON benchmark arrays + CSV rows).
struct PointShard {
  std::size_t index = 0;  // 0-based shard id, < count.
  std::size_t count = 1;

  [[nodiscard]] bool contains(std::size_t point) const noexcept {
    return count <= 1 || point % count == index;
  }
};

/// Parses "K/N" (1-based K, as run_all.sh --points passes it); nullptr or
/// empty means the full range. Throws std::invalid_argument on malformed
/// specs or K outside [1, N].
[[nodiscard]] PointShard parse_point_shard(const char* spec);

/// parse_point_shard over the QP_POINT_SHARD environment variable — the
/// hook every figure binary calls so one expensive figure can fan out
/// across hosts.
[[nodiscard]] PointShard point_shard_from_env();

// ---------------------------------------------------------------- §3 (Q/U)

struct QuPoint {
  std::size_t t = 0;         // Fault threshold; n = 5t+1, quorum = 4t+1.
  std::size_t universe = 0;  // n
  std::size_t clients = 0;   // Total client count across the 10 sites.
  double network_delay_ms = 0.0;
  double response_ms = 0.0;
  double throughput_rps = 0.0;

  template <class F>
  void columns(F&& f) const {
    f("t", t);
    f("universe", universe);
    f("clients", clients);
    f("network_delay_ms", network_delay_ms);
    f("response_ms", response_ms);
    f("throughput_rps", throughput_rps);
  }
};

struct QuSweepConfig {
  std::vector<std::size_t> t_values{1, 2, 3, 4, 5};
  std::vector<std::size_t> client_counts{10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
  std::size_t client_site_count = 10;
  double duration_ms = 20'000.0;
  double warmup_ms = 3'000.0;
  std::uint64_t seed = 42;
  /// Per-message server CPU time. §3 states 1 ms; the fig3 benches add the
  /// real Q/U implementation's message-handling cost (unmarshal, verify,
  /// marshal reply), which the paper's testbed paid implicitly and which
  /// drives its steeper response growth under load.
  double service_time_ms = 1.0;
};

/// Figures 3.1 / 3.2: simulated Q/U response-time surface over
/// (t, client count): closed-loop clients (sim/engine with
/// closed_loop_clients) at the representative client sites, uniform-random
/// quorum selection, deterministic service, one replication per point.
[[nodiscard]] std::vector<QuPoint> qu_response_surface(const net::LatencySpace& space,
                                                       const QuSweepConfig& config = {});

// ----------------------------------------------------------------- §6 (6.3)

struct LowDemandPoint {
  std::string system;        // "(t+1,2t+1) Maj", ..., "Grid", "Singleton".
  std::size_t universe = 0;
  double response_ms = 0.0;  // alpha = 0, closest strategy.

  template <class F>
  void columns(F&& f) const {
    f("system", system);
    f("universe", universe);
    f("response_ms", response_ms);
  }
};

/// Figure 6.3: response time (= network delay, alpha=0) of the closest
/// access strategy for the three Majority families, Grid, and the singleton,
/// as universe size grows.
[[nodiscard]] std::vector<LowDemandPoint> low_demand_sweep(const net::LatencySpace& space);

// ------------------------------------------------------------ §7 (6.4, 6.5)

struct GridDemandPoint {
  std::size_t universe = 0;  // k*k
  double client_demand = 0.0;
  std::string strategy;      // "closest" or "balanced".
  double response_ms = 0.0;
  double network_delay_ms = 0.0;

  template <class F>
  void columns(F&& f) const {
    f("universe", universe);
    f("client_demand", client_demand);
    f("strategy", strategy);
    f("response_ms", response_ms);
    f("network_delay_ms", network_delay_ms);
  }
};

/// Figures 6.4 / 6.5: Grid response time & network delay under the closest
/// and balanced strategies for each demand level (alpha = 0.007 * demand).
/// `demand_profile` is an optional per-client relative demand shape: each
/// level's per-client demand is the profile scaled to mean `demand`, so the
/// evaluations weight clients (and the closest-strategy load) by demand
/// share. An empty or constant profile reproduces the uniform sweep
/// exactly. `shard` selects an interleaved subset of the (side, demand)
/// points (see PointShard).
[[nodiscard]] std::vector<GridDemandPoint> grid_demand_sweep(
    const net::LatencySpace& space, std::span<const double> demands,
    std::size_t max_side = 0 /* 0 = largest grid that fits */,
    std::span<const double> demand_profile = {}, PointShard shard = {});

// -------------------------------------------------- §7 (7.6, 7.7, 7.8) LPs

struct CapacityPoint {
  std::size_t universe = 0;
  double capacity_level = 0.0;  // The c_i of (7.7).
  bool nonuniform = false;      // §7 inverse-distance heuristic?
  double response_ms = 0.0;
  double network_delay_ms = 0.0;
  bool feasible = true;

  template <class F>
  void columns(F&& f) const {
    f("universe", universe);
    f("capacity_level", capacity_level);
    f("nonuniform", nonuniform);
    f("feasible", feasible);
    f("response_ms", response_ms);
    f("network_delay_ms", network_delay_ms);
  }
};

struct CapacitySweepConfig {
  double client_demand = 16'000.0;
  std::size_t levels = 10;
  std::size_t min_side = 2;
  std::size_t max_side = 7;
  bool include_nonuniform = false;
  /// Interleaved selection over the (side, level) points.
  PointShard shard{};
};

/// Figures 7.6/7.7/7.8: for each grid side and capacity level c_i, solve LP
/// (4.3)-(4.6) (optionally also with §7's non-uniform capacities in
/// [L_opt, c_i]) and evaluate the resulting strategies at the given demand.
[[nodiscard]] std::vector<CapacityPoint> capacity_sweep(const net::LatencySpace& space,
                                                        const CapacitySweepConfig& config = {});

// ----------------------------------------------------------------- §7 (8.9)

struct IterativePoint {
  double capacity_level = 0.0;
  std::string stage;  // "one-to-one", "iter1-phase1", "iter1-phase2", ...
  double network_delay_ms = 0.0;
  double response_ms = 0.0;

  template <class F>
  void columns(F&& f) const {
    f("capacity_level", capacity_level);
    f("stage", stage);
    f("network_delay_ms", network_delay_ms);
    f("response_ms", response_ms);
  }
};

struct IterativeSweepConfig {
  std::size_t side = 5;
  std::size_t levels = 10;
  /// Anchor candidates for the placement search; 0 = all sites (slow). The
  /// default tries the 12 most central sites, which empirically matches the
  /// exhaustive search on these topologies.
  std::size_t anchor_count = 12;
  /// Interleaved selection over the capacity levels.
  PointShard shard{};
  /// Forwarded to IterativeOptions::warm_start — the fig8_9 binary exposes
  /// it as QP_ITER_WARM so CI can compare warm and cold runs.
  bool warm_start = true;
};

/// Figure 8.9: network delay (alpha = 0) of the iterative many-to-one
/// algorithm, per iteration/phase, vs. the one-to-one placement, across
/// capacity levels.
[[nodiscard]] std::vector<IterativePoint> iterative_sweep(
    const net::LatencySpace& space, const IterativeSweepConfig& config = {});

/// The `anchor_count` sites with smallest average RTT to all sites —
/// the candidate v0 set used by iterative_sweep.
[[nodiscard]] std::vector<std::size_t> central_sites(const net::LatencySpace& space,
                                                     std::size_t count);

// ------------------------------------------- large topologies (beyond §7)

struct LargeTopologyPoint {
  std::string scenario;           // e.g. "daxlist-161", "synthetic-500".
  std::string system;             // e.g. "Grid(7x7)", "Majority(25/49)".
  std::string objective;          // "load-aware" or "closest".
  std::string stage;              // "constructive" or "local-opt".
  double alpha = 0.0;             // Load coefficient of the scenario.
  double response_ms = 0.0;       // Objective value of the placement.
  double network_delay_ms = 0.0;  // alpha = 0 objective of the same placement.
  std::size_t moves = 0;          // Accepted relocations (0 for constructive).
  double stage_ms = 0.0;          // Wall-clock of producing the stage.

  template <class F>
  void columns(F&& f) const {
    f("scenario", scenario);
    f("system", system);
    f("objective", objective);
    f("stage", stage);
    f("alpha", alpha);
    f("response_ms", response_ms);
    f("network_delay_ms", network_delay_ms);
    f("moves", moves);
    f("stage_ms", stage_ms);
  }
};

struct LargeTopologyConfig {
  std::size_t grid_side = 7;           // n = 49, the paper's largest grid.
  std::size_t majority_universe = 49;  // Majority(25/49), same n.
  std::size_t majority_quorum = 25;
  /// Anchor candidates v0 for the constructive search (most central sites);
  /// 0 = all sites (exhaustive, slow on 500-site scenarios).
  std::size_t anchor_count = 32;
  /// Round cap for the load-aware local search.
  std::size_t max_rounds = 60;
  /// Also run the §6 closest-strategy objective (two more rows per system).
  bool include_closest = true;
};

/// The large-topology figure: constructive placements (§4.1.1, anchored at
/// the scenario's central sites, scored by the scenario's demand-weighted
/// objectives) vs the local optima the incremental DeltaEvaluator search
/// reaches from them, for Grid and Majority at n = 49 — under the balanced
/// load-aware objective and (optionally) the closest-strategy one. Two rows
/// per (system, objective).
[[nodiscard]] std::vector<LargeTopologyPoint> large_topology_sweep(
    const sim::Scenario& scenario, const LargeTopologyConfig& config = {});

}  // namespace qp::eval
