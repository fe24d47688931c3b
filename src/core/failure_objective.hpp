// Degraded-mode placement objective: expected response time and
// unavailability under random site failures, with closest re-choice.
//
// Model: each site is independently down with probability p
// (FailureModel::site_failure_prob); optionally a whole region is down with
// probability region_failure_prob (correlated — every site of the region at
// once, the failure mode that actually separates placements, because i.i.d.
// site failures hit any one-to-one placement equally). A quorum is live
// when every element's hosting site is up; each client re-chooses the
// minimum-x live quorum (x = d(v, f(u)) + alpha * load, the same (4.1)
// surrogate the live objectives use), exactly what a client with a perfect
// failure detector would access — the analytic twin of the engine's
// FailoverMode::Oracle, which eval/sim_validation pins against it. When no
// live quorum exists the request is unavailable and charged a fixed
// penalty, so search trades response time against availability through one
// scalar.
//
// Per client v:   J_v = E[x-max of the best live quorum ; available]
//                       + P(no live quorum) * unavailable_penalty_ms
//                 J   = sum_v w_v J_v        (demand shares, empty = uniform)
//
// Evaluation dispatch (FailureAwareOptions):
//   * exact order statistics — Majority/Singleton-style systems expose
//     order_stat_weights-free structure: for MajorityQuorum(n, q) on a
//     one-to-one placement the best live quorum is the q cheapest live
//     elements, so E[..] = sum_{j>=q} x_(j) C(j-1, q-1) (1-p)^q p^(j-q)
//     in closed form (exact at the paper's n = 49);
//   * exact failure-set enumeration — any enumerable system (Grid,
//     Singleton, ...) whose support has at most exact_site_limit sites:
//     sum over all 2^s site up/down masks of P(mask) * best-live response
//     (exact for Grid at small k; handles many-to-one placements, whose
//     colocated elements fail together);
//   * Monte Carlo over failure sets — everything else, including every
//     regional-correlation model: mc_samples seeded masks, drawn per *site*
//     with a fresh rng per evaluation, so repeated evaluations are
//     identical and candidate placements share common random numbers (a
//     move changes the objective only through the placement, not through
//     resampling noise).
//
// The load term uses the fully-live closest per-site loads (documented
// approximation: failure-induced re-aiming of load is second-order at the
// small failure probabilities the model targets; the validation band in
// tests/fault_test.cpp bounds the end-to-end error against the engine).
//
// FailureAwareObjective plugs into the existing search API but is an
// expectation over failure sets, which the incremental DeltaEvaluator does
// not model: supports_delta() is false, so local_search_placement routes it
// through full re-evaluation of every candidate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/objective.hpp"

namespace qp::core {

/// Random-failure model: i.i.d. per-site failures plus optional correlated
/// regional failures (site down = own failure OR its region's failure).
struct FailureModel {
  /// Independent per-site down probability, in [0, 1).
  double site_failure_prob = 0.0;
  /// Whole-region down probability, in [0, 1); needs site_region.
  double region_failure_prob = 0.0;
  /// Per-site region id (sim::region_partition); empty = no regional term.
  std::vector<std::size_t> site_region;

  [[nodiscard]] bool regional() const noexcept {
    return region_failure_prob > 0.0 && !site_region.empty();
  }
  /// Throws std::invalid_argument on probabilities outside [0, 1).
  void validate() const;
};

struct FailureAwareOptions {
  /// Failure-set samples for the Monte-Carlo path.
  std::size_t mc_samples = 256;
  /// Seed of the per-evaluation rng (common random numbers across calls).
  std::uint64_t seed = 20070601;
  /// Exact enumeration bound: supports with at most this many sites (and an
  /// enumerable system, no regional term) enumerate all 2^s failure sets.
  std::size_t exact_site_limit = 10;
  /// Charge per unavailable request, ms — the knob trading mean response
  /// against availability.
  double unavailable_penalty_ms = 500.0;
};

/// evaluate_detailed's decomposition of the objective.
struct FailureAwareEvaluation {
  double objective_ms = 0.0;             // J: response mass + penalty mass.
  double expected_response_ms = 0.0;     // E[R | available] (completion-weighted).
  double unavailability = 0.0;           // Demand-weighted P(no live quorum).
};

class FailureAwareObjective final : public Objective {
 public:
  /// Requires alpha >= 0 and finite, mc_samples >= 1 and a finite
  /// unavailable_penalty_ms >= 0 (std::invalid_argument otherwise);
  /// validates the model. Both constructors share one validating body.
  FailureAwareObjective(double alpha, FailureModel model,
                        FailureAwareOptions options = {});
  FailureAwareObjective(double alpha, FailureModel model,
                        std::span<const double> client_demand,
                        FailureAwareOptions options = {});

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] double alpha() const noexcept override { return alpha_; }
  [[nodiscard]] AccessStrategy access_strategy() const noexcept override {
    return AccessStrategy::Closest;
  }
  [[nodiscard]] bool supports_delta() const noexcept override { return false; }
  [[nodiscard]] std::span<const double> element_loads(
      const quorum::QuorumSystem&) const override {
    return {};  // Placement-dependent; see site_loads.
  }
  [[nodiscard]] double evaluate_ws(const net::LatencySpace& space,
                                   const quorum::QuorumSystem& system,
                                   const Placement& placement,
                                   EvalWorkspace& workspace) const override;

  /// Full decomposition: objective, conditional mean response, and
  /// unavailability. The alpha-term loads are the fully-live closest ones
  /// (Objective::site_loads; see file comment). Throws
  /// std::invalid_argument when the system is neither Majority-shaped nor
  /// enumerable (QuorumSystem::enumerable), or when a regional model's site_region
  /// is shorter than the site count.
  [[nodiscard]] FailureAwareEvaluation evaluate_detailed(
      const net::LatencySpace& space, const quorum::QuorumSystem& system,
      const Placement& placement) const;

  [[nodiscard]] const FailureModel& model() const noexcept { return model_; }
  [[nodiscard]] const FailureAwareOptions& options() const noexcept { return options_; }

 private:
  double alpha_;
  FailureModel model_;
  FailureAwareOptions options_;
};

}  // namespace qp::core
