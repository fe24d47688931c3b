// Cross-validation of the analytic response-time objectives against the
// discrete-event queueing engine (sim/engine).
//
// Each row pins one operating point: a quorum system placed on a topology,
// an access strategy (closest / balanced / an LP-exported explicit
// strategy), and a target peak utilization rho. The client arrival rates
// are scaled so the busiest site reaches rho, and the analytic prediction
// is the matching objective evaluated at alpha = S^2 * total arrival rate —
// the calibration under which alpha * load_f(w) equals rho_w * S, the
// linear low-utilization surrogate for the queueing delay — plus one
// service time (which every simulated reply pays and the objective does
// not model). At rho <= 0.3 the two agree within 3% (test-enforced,
// tests/engine_test.cpp); at rho 0.6/0.9, under bursty MMPP arrivals, and
// under outages the divergence quantifies where the linear model stops
// holding — exactly the regimes no analytic layer reaches.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "eval/figures.hpp"
#include "net/latency_space.hpp"
#include "sim/scenario.hpp"

namespace qp::eval {

struct SimValidationPoint {
  std::string scenario;  // "planetlab-50", "daxlist-161", "synthetic-500".
  std::string system;    // "Grid(7x7)", "Majority(25/49)".
  std::string strategy;  // "closest", "balanced", or "lp".
  std::string arrivals;  // "poisson" or "mmpp".
  double target_rho = 0.0;
  double analytic_ms = 0.0;   // Objective prediction + one service time.
  double simulated_ms = 0.0;  // Engine mean response (warm-up trimmed).
  double divergence_pct = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double peak_utilization = 0.0;  // Measured; should track target_rho.
  std::size_t completed = 0;
  std::size_t dropped_messages = 0;
  bool outage = false;

  // --- Fault-injection rows (include_fault) ------------------------------
  /// True on rows driven by sim::FaultInjector crash/recovery schedules
  /// with Oracle failover; analytic_ms is then the FailureAwareObjective
  /// conditional mean E[R | available] + service instead of the live
  /// closest/balanced prediction.
  bool fault = false;
  double unavailability_analytic = 0.0;  // FailureAwareObjective prediction.
  double unavailability_sim = 0.0;       // Engine (failed+abandoned)/issued.
  std::size_t retries = 0;               // Engine retry attempts.
  std::size_t abandoned = 0;             // Requests that exhausted attempts.
};

struct SimValidationConfig {
  std::vector<double> rho_values{0.1, 0.2, 0.3};
  double service_time_ms = 1.0;
  double warmup_ms = 2'000.0;
  double duration_ms = 20'000.0;
  std::size_t replications = 3;
  std::uint64_t seed = 20070601;
  /// Also validate an explicit LP strategy on the Grid (one simplex solve,
  /// capacities 1.25 * L_opt).
  bool include_lp = false;
  /// One closest-strategy row per system with the busiest site down for a
  /// quarter of the measured window, at rho = 0.6.
  bool include_outage = false;
  /// One balanced row per system with bursty MMPP arrivals at rho = 0.6.
  bool include_mmpp = false;
  /// Closest-strategy rows per system at rho in {0.15, 0.3} under random
  /// crash/recovery fault injection (sim/fault): every site cycles through
  /// exponential MTTF/MTTR (mean repair 2.5 s) targeting 8% steady-state
  /// downtime, the engine retries with FailoverMode::Oracle re-choice, and the
  /// analytic column is core::FailureAwareObjective's conditional mean —
  /// the closed-loop check that the degraded-mode objective predicts the
  /// engine under faults (tests/fault_test.cpp pins the band).
  bool include_fault = false;
  /// Interleaved selection over the enumerated rows (run_all.sh --points).
  PointShard shard{};
};

/// The n = 49 validation figure: {Grid(7x7), Majority(25/49)} placed by the
/// §4.1.1 constructions on `space` (uniform client demand), closest and
/// balanced strategies at every rho, plus the optional lp/outage/mmpp rows.
[[nodiscard]] std::vector<SimValidationPoint> sim_validation_sweep(
    const net::LatencySpace& space, const SimValidationConfig& config = {});

/// Demand-weighted scenario rows: the same systems on a sim::Scenario's
/// topology with its Pareto demand vector driving both the arrival rates
/// and the analytic demand weighting (closest + balanced at every rho).
[[nodiscard]] std::vector<SimValidationPoint> sim_validation_scenario(
    const sim::Scenario& scenario, const SimValidationConfig& config = {});

}  // namespace qp::eval
