// Fault injection, retry/failover, and the degraded-mode objective:
//   * OutageSchedule construction semantics (sort + merge of overlapping,
//     adjacent, and abutting windows; binary-searched down_at; down_time);
//   * FaultInjector determinism, stationary statistics, regional
//     correlation, and the SplitMix64 stream chain;
//   * RetryPolicy / SuspicionList unit behavior;
//   * core::FailureAwareObjective: the Majority closed form and the
//     exact-enumeration path pinned against brute-force enumeration over
//     every failure set, Monte-Carlo agreement, degenerate p = 0 equality
//     with ClosestStrategyObjective, and the supports_delta() fallback;
//   * the engine's retry/failover accounting invariants, and the
//     closed-loop validation band: FailureAwareObjective's prediction vs
//     sim/engine measurements under injected faults at rho <= 0.3.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "core/delta_eval.hpp"
#include "core/failure_objective.hpp"
#include "core/local_search.hpp"
#include "core/objective.hpp"
#include "core/placement.hpp"
#include "core/strategy.hpp"
#include "net/synthetic.hpp"
#include "quorum/grid.hpp"
#include "quorum/majority.hpp"
#include "quorum/singleton.hpp"
#include "quorum/tree.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/retry.hpp"
#include "sim/service_queue.hpp"
#include "support/quorum_enumeration.hpp"

namespace qp {
namespace {

/// Total down time of `site` overlapping [from_ms, to_ms): the schedule's
/// windows clipped to the range.
double down_time(const sim::OutageSchedule& schedule, std::size_t site, double from_ms,
                 double to_ms) {
  double total = 0.0;
  for (const auto& [start, end] : schedule.windows(site)) {
    total += std::max(0.0, std::min(end, to_ms) - std::max(start, from_ms));
  }
  return total;
}

// --- OutageSchedule window semantics ---------------------------------------

TEST(OutageSchedule, MergesOverlappingAdjacentAndAbuttingWindows) {
  const std::vector<sim::ServerOutage> outages = {
      {0, 15.0, 30.0},  // Overlaps [10, 20).
      {0, 10.0, 20.0},
      {0, 30.0, 40.0},  // Abuts [15, 30) exactly at 30.
      {0, 50.0, 60.0},  // Disjoint.
      {1, 5.0, 6.0},
  };
  const sim::OutageSchedule schedule{outages, 2};
  const auto windows = schedule.windows(0);
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_DOUBLE_EQ(windows[0].first, 10.0);
  EXPECT_DOUBLE_EQ(windows[0].second, 40.0);
  EXPECT_DOUBLE_EQ(windows[1].first, 50.0);
  EXPECT_DOUBLE_EQ(windows[1].second, 60.0);

  EXPECT_FALSE(schedule.down_at(0, 9.999));
  EXPECT_TRUE(schedule.down_at(0, 10.0));  // Start inclusive.
  EXPECT_TRUE(schedule.down_at(0, 30.0));  // The seam is covered.
  EXPECT_TRUE(schedule.down_at(0, 39.999));
  EXPECT_FALSE(schedule.down_at(0, 40.0));  // End exclusive.
  EXPECT_FALSE(schedule.down_at(0, 45.0));
  EXPECT_TRUE(schedule.down_at(0, 55.0));
  EXPECT_FALSE(schedule.down_at(0, 60.0));
  EXPECT_TRUE(schedule.down_at(1, 5.5));
  EXPECT_FALSE(schedule.down_at(1, 6.0));
}

TEST(OutageSchedule, DownTimeClipsToTheQueriedRange) {
  const std::vector<sim::ServerOutage> outages = {{0, 10.0, 40.0}, {0, 50.0, 60.0}};
  const sim::OutageSchedule schedule{outages, 1};
  EXPECT_DOUBLE_EQ(down_time(schedule, 0, 0.0, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(down_time(schedule, 0, 35.0, 55.0), 10.0);  // 5 + 5.
  EXPECT_DOUBLE_EQ(down_time(schedule, 0, 41.0, 49.0), 0.0);
  EXPECT_DOUBLE_EQ(down_time(schedule, 0, 20.0, 30.0), 10.0);  // Fully inside.
}

TEST(OutageSchedule, EmptyAndOutOfRangeSitesAreAlwaysUp) {
  const sim::OutageSchedule empty;
  EXPECT_FALSE(empty.down_at(0, 1.0));
  EXPECT_TRUE(empty.windows(0).empty());
  const std::vector<sim::ServerOutage> one = {{0, 1.0, 2.0}};
  const sim::OutageSchedule schedule{one, 3};
  EXPECT_TRUE(schedule.windows(2).empty());
  EXPECT_FALSE(schedule.down_at(2, 1.5));
}

// --- FaultInjector ---------------------------------------------------------

TEST(FaultInjector, ForDownProbabilityHitsTheTarget) {
  const sim::FaultProcess process = sim::FaultProcess::for_down_probability(0.2, 500.0);
  EXPECT_DOUBLE_EQ(process.mttr_ms, 500.0);
  EXPECT_DOUBLE_EQ(process.mttf_ms, 2'000.0);
  EXPECT_DOUBLE_EQ(process.steady_state_down(), 0.2);
  EXPECT_THROW((void)sim::FaultProcess::for_down_probability(0.0, 500.0),
               std::invalid_argument);
  EXPECT_THROW((void)sim::FaultProcess::for_down_probability(1.0, 500.0),
               std::invalid_argument);
  EXPECT_THROW((void)sim::FaultProcess::for_down_probability(0.2, 0.0),
               std::invalid_argument);
}

TEST(FaultInjector, SchedulesAreDeterministicInTheSeed) {
  sim::FaultInjectorConfig config;
  config.seed = 314;
  config.horizon_ms = 10'000.0;
  config.site = sim::FaultProcess::for_down_probability(0.1, 400.0);
  const auto a = sim::FaultInjector{config}.schedule(20);
  const auto b = sim::FaultInjector{config}.schedule(20);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].site, b[i].site);
    EXPECT_DOUBLE_EQ(a[i].start_ms, b[i].start_ms);
    EXPECT_DOUBLE_EQ(a[i].end_ms, b[i].end_ms);
  }
  config.seed = 315;
  const auto c = sim::FaultInjector{config}.schedule(20);
  bool different = c.size() != a.size();
  for (std::size_t i = 0; !different && i < a.size(); ++i) {
    different = a[i].start_ms != c[i].start_ms;
  }
  EXPECT_TRUE(different);
}

TEST(FaultInjector, StationaryDownFractionMatchesTheModel) {
  // Aggregate down time over many independent site processes converges to
  // the stationary probability — and holds from time zero (stationary
  // start), checked by also measuring only the first fifth of the horizon.
  sim::FaultInjectorConfig config;
  config.seed = 2718;
  config.horizon_ms = 120'000.0;
  config.site = sim::FaultProcess::for_down_probability(0.2, 500.0);
  const sim::FaultInjector injector{config};
  const std::size_t sites = 200;
  const sim::OutageSchedule oracle{injector.schedule(sites), sites};
  double down_full = 0.0;
  double down_early = 0.0;
  for (std::size_t site = 0; site < sites; ++site) {
    down_full += down_time(oracle, site, 0.0, config.horizon_ms);
    down_early += down_time(oracle, site, 0.0, config.horizon_ms / 5.0);
  }
  const double sites_d = static_cast<double>(sites);
  EXPECT_NEAR(down_full / (sites_d * config.horizon_ms), 0.2, 0.02);
  EXPECT_NEAR(down_early / (sites_d * config.horizon_ms / 5.0), 0.2, 0.04);
  EXPECT_DOUBLE_EQ(injector.steady_state_down(), 0.2);
}

TEST(FaultInjector, RegionalFailuresTakeWholeRegionsDownTogether) {
  sim::FaultInjectorConfig config;
  config.seed = 99;
  config.horizon_ms = 50'000.0;
  config.regional = sim::FaultProcess::for_down_probability(0.15, 1'000.0);
  config.site_region = {0, 0, 0, 1, 1, 1};
  const sim::OutageSchedule oracle{sim::FaultInjector{config}.schedule(6), 6};
  // Sites of one region share bitwise-identical windows.
  const auto first = oracle.windows(0);
  ASSERT_FALSE(first.empty());
  for (std::size_t site : {1u, 2u}) {
    const auto windows = oracle.windows(site);
    ASSERT_EQ(windows.size(), first.size()) << site;
    for (std::size_t i = 0; i < first.size(); ++i) {
      EXPECT_DOUBLE_EQ(windows[i].first, first[i].first);
      EXPECT_DOUBLE_EQ(windows[i].second, first[i].second);
    }
  }
  // Distinct regions run distinct streams.
  const auto other = oracle.windows(3);
  bool different = other.size() != first.size();
  for (std::size_t i = 0; !different && i < first.size(); ++i) {
    different = other[i].first != first[i].first;
  }
  EXPECT_TRUE(different);
}

TEST(FaultInjector, ValidationRejectsBadConfigs) {
  sim::FaultInjectorConfig config;
  config.horizon_ms = 0.0;
  EXPECT_THROW(sim::FaultInjector{config}, std::invalid_argument);
  config = {};
  config.site = {100.0, 0.0};  // Enabled but unrepairable.
  EXPECT_THROW(sim::FaultInjector{config}, std::invalid_argument);
  config = {};
  config.regional = sim::FaultProcess::for_down_probability(0.1, 100.0);
  config.site_region = {0, 0};  // Shorter than the site count below.
  EXPECT_THROW((void)sim::FaultInjector{config}.schedule(5), std::invalid_argument);
}

TEST(FaultInjector, StreamSeedsFollowTheSplitMixChain) {
  // fault_stream_seed(seed, k) must equal the (k+1)-th SplitMix64 output of
  // the chain seeded by `seed` — the O(1) jump the injector relies on for
  // order-independent per-site streams.
  const std::uint64_t seed = 0xfeedf00dULL;
  std::uint64_t state = seed;
  for (std::uint64_t stream = 0; stream < 8; ++stream) {
    const std::uint64_t expected = common::splitmix64(state);
    EXPECT_EQ(sim::fault_stream_seed(seed, stream), expected) << stream;
  }
}

// --- RetryPolicy / SuspicionList -------------------------------------------

TEST(RetryPolicy, ValidatesAndDoublesBackoffUpToTheCap) {
  sim::RetryPolicy policy;
  policy.timeout_ms = 100.0;
  policy.backoff_base_ms = 10.0;
  policy.backoff_max_ms = 35.0;
  policy.validate();
  common::Rng rng{1};
  EXPECT_DOUBLE_EQ(policy.backoff_delay(1, rng), 10.0);
  EXPECT_DOUBLE_EQ(policy.backoff_delay(2, rng), 20.0);
  EXPECT_DOUBLE_EQ(policy.backoff_delay(3, rng), 35.0);  // Capped.
  EXPECT_DOUBLE_EQ(policy.backoff_delay(9, rng), 35.0);

  policy.jitter_frac = 0.5;
  const double jittered = policy.backoff_delay(2, rng);
  EXPECT_GE(jittered, 20.0);
  EXPECT_LE(jittered, 30.0);

  sim::RetryPolicy bad;
  bad.timeout_ms = -1.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = {};
  bad.max_attempts = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = {};
  bad.jitter_frac = 1.5;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(SuspicionList, SuspicionsExpireAfterTheTtl) {
  sim::SuspicionList suspicion{4, 50.0};
  EXPECT_FALSE(suspicion.suspected(3, 0.0));
  suspicion.suspect(3, 100.0);
  EXPECT_TRUE(suspicion.suspected(3, 100.0));
  EXPECT_TRUE(suspicion.suspected(3, 149.9));
  EXPECT_FALSE(suspicion.suspected(3, 150.0));
  EXPECT_FALSE(suspicion.suspected(2, 100.0));  // Never suspected.
  suspicion.suspect(3, 200.0);  // Re-suspicion rearms the expiry.
  EXPECT_TRUE(suspicion.suspected(3, 249.0));
}

// --- FailureAwareObjective -------------------------------------------------

/// Brute-force reference: enumerate every up/down state of the support
/// sites, and per client take the minimum over quorums of the max element x
/// among fully-live quorums. Written independently of the objective's
/// sorted-scan evaluators.
struct BruteForce {
  double objective = 0.0;
  double response_mass = 0.0;  // avg_v E[R ; available].
  double unavailability = 0.0;
};

BruteForce brute_force(const net::LatencyMatrix& matrix,
                       const quorum::QuorumSystem& system,
                       const core::Placement& placement, double alpha, double p,
                       double penalty) {
  const std::vector<quorum::Quorum> quorums = quorum::test_support::quorum_list(system);
  const std::vector<std::size_t> support = placement.support_set();
  const std::vector<double> load =
      core::site_loads_closest(matrix, system, placement, std::span<const double>{});
  BruteForce result;
  const std::size_t clients = matrix.size();
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << support.size()); ++mask) {
    double prob = 1.0;
    for (std::size_t i = 0; i < support.size(); ++i) {
      prob *= ((mask >> i) & 1U) != 0 ? p : 1.0 - p;
    }
    std::vector<bool> site_down(matrix.size(), false);
    for (std::size_t i = 0; i < support.size(); ++i) {
      site_down[support[i]] = ((mask >> i) & 1U) != 0;
    }
    for (std::size_t v = 0; v < clients; ++v) {
      double best = std::numeric_limits<double>::infinity();
      for (const quorum::Quorum& quorum : quorums) {
        double max_x = 0.0;
        bool live = true;
        for (std::size_t u : quorum) {
          const std::size_t site = placement.site_of[u];
          if (site_down[site]) {
            live = false;
            break;
          }
          max_x = std::max(max_x, matrix.rtt(v, site) + alpha * load[site]);
        }
        if (live) best = std::min(best, max_x);
      }
      const double w = prob / static_cast<double>(clients);
      if (std::isfinite(best)) {
        result.response_mass += w * best;
      } else {
        result.unavailability += w;
      }
    }
  }
  result.objective = result.response_mass + result.unavailability * penalty;
  return result;
}

TEST(FailureAwareObjective, MajorityClosedFormMatchesBruteForce) {
  const net::LatencyMatrix matrix = net::small_synth(12, 42);
  const quorum::MajorityQuorum system{9, 5};
  core::Placement placement;
  placement.site_of = {0, 1, 2, 3, 4, 5, 6, 7, 8};
  for (double p : {0.05, 0.15, 0.4}) {
    core::FailureModel model;
    model.site_failure_prob = p;
    const core::FailureAwareObjective objective{0.02, model};
    const auto detailed = objective.evaluate_detailed(matrix, system, placement);
    const BruteForce reference =
        brute_force(matrix, system, placement, 0.02, p,
                    objective.options().unavailable_penalty_ms);
    EXPECT_NEAR(detailed.objective_ms, reference.objective, 1e-9) << p;
    EXPECT_NEAR(detailed.unavailability, reference.unavailability, 1e-12) << p;
  }
}

TEST(FailureAwareObjective, GridEnumerationMatchesBruteForce) {
  const net::LatencyMatrix matrix = net::small_synth(12, 42);
  const quorum::GridQuorum system{3};
  core::Placement placement;
  placement.site_of = {0, 1, 2, 3, 4, 5, 6, 7, 8};
  core::FailureModel model;
  model.site_failure_prob = 0.1;
  const core::FailureAwareObjective objective{0.0, model};
  const auto detailed = objective.evaluate_detailed(matrix, system, placement);
  const BruteForce reference = brute_force(matrix, system, placement, 0.0, 0.1,
                                           objective.options().unavailable_penalty_ms);
  EXPECT_NEAR(detailed.objective_ms, reference.objective, 1e-9);
  EXPECT_NEAR(detailed.unavailability, reference.unavailability, 1e-12);
}

TEST(FailureAwareObjective, ManyToOnePlacementFailsColocatedElementsTogether) {
  // Two elements on one site live or die together; the exact-enumeration
  // path must track site states, not element states.
  const net::LatencyMatrix matrix = net::small_synth(8, 7);
  const quorum::GridQuorum system{2};  // 2x2 grid, 4 elements.
  core::Placement placement;
  placement.site_of = {0, 1, 0, 2};  // Elements 0 and 2 share site 0.
  core::FailureModel model;
  model.site_failure_prob = 0.2;
  const core::FailureAwareObjective objective{0.0, model};
  const auto detailed = objective.evaluate_detailed(matrix, system, placement);
  const BruteForce reference = brute_force(matrix, system, placement, 0.0, 0.2,
                                           objective.options().unavailable_penalty_ms);
  EXPECT_NEAR(detailed.objective_ms, reference.objective, 1e-9);
  EXPECT_NEAR(detailed.unavailability, reference.unavailability, 1e-12);
}

TEST(FailureAwareObjective, MonteCarloAgreesWithExactEnumeration) {
  const net::LatencyMatrix matrix = net::small_synth(12, 42);
  const quorum::GridQuorum system{3};
  core::Placement placement;
  placement.site_of = {0, 1, 2, 3, 4, 5, 6, 7, 8};
  core::FailureModel model;
  model.site_failure_prob = 0.1;
  const core::FailureAwareObjective exact{0.0, model};
  core::FailureAwareOptions options;
  options.exact_site_limit = 0;  // Force the Monte-Carlo path.
  options.mc_samples = 50'000;
  const core::FailureAwareObjective sampled{0.0, model, options};
  const auto a = exact.evaluate_detailed(matrix, system, placement);
  const auto b = sampled.evaluate_detailed(matrix, system, placement);
  EXPECT_NEAR(b.objective_ms, a.objective_ms, 0.02 * a.objective_ms);
  EXPECT_NEAR(b.unavailability, a.unavailability, 0.01);
  // Common random numbers: repeated evaluation is bit-identical.
  const auto c = sampled.evaluate_detailed(matrix, system, placement);
  EXPECT_DOUBLE_EQ(b.objective_ms, c.objective_ms);
}

TEST(FailureAwareObjective, ZeroFailureProbabilityEqualsClosestObjective) {
  const net::LatencyMatrix matrix = net::small_synth(12, 42);
  core::Placement placement;
  placement.site_of = {0, 1, 2, 3, 4, 5, 6, 7, 8};
  const core::FailureAwareObjective fault_aware{0.05, core::FailureModel{}};
  const core::ClosestStrategyObjective closest{0.05};
  const quorum::GridQuorum grid{3};
  const quorum::MajorityQuorum majority{9, 5};
  EXPECT_DOUBLE_EQ(fault_aware.evaluate(matrix, grid, placement),
                   closest.evaluate(matrix, grid, placement));
  EXPECT_DOUBLE_EQ(fault_aware.evaluate(matrix, majority, placement),
                   closest.evaluate(matrix, majority, placement));
  const auto detailed = fault_aware.evaluate_detailed(matrix, grid, placement);
  EXPECT_DOUBLE_EQ(detailed.unavailability, 0.0);
}

TEST(FailureAwareObjective, ZeroFailureProbabilityEqualsClosestOnTreeH4) {
  // Tree(h=4): 65535 quorums, the largest built-in table within
  // quorum::kEnumerationLimit; the failure-aware path reads it like any other.
  const quorum::TreeQuorum tree{4};
  const net::LatencyMatrix matrix = net::small_synth(tree.universe_size() + 3, 43);
  core::Placement placement;
  placement.site_of.resize(tree.universe_size());
  std::iota(placement.site_of.begin(), placement.site_of.end(), std::size_t{0});
  const core::FailureAwareObjective fault_aware{0.05, core::FailureModel{}};
  const core::ClosestStrategyObjective closest{0.05};
  const double expected = closest.evaluate(matrix, tree, placement);
  EXPECT_NEAR(fault_aware.evaluate(matrix, tree, placement), expected,
              1e-9 * std::max(1.0, expected));
}

TEST(FailureAwareObjective, SingletonUnavailabilityIsTheSiteFailureProbability) {
  const net::LatencyMatrix matrix = net::small_synth(8, 7);
  const quorum::SingletonQuorum system;
  core::Placement placement;
  placement.site_of = {3};
  core::FailureModel model;
  model.site_failure_prob = 0.1;
  const core::FailureAwareObjective objective{0.0, model};
  const auto detailed = objective.evaluate_detailed(matrix, system, placement);
  EXPECT_NEAR(detailed.unavailability, 0.1, 1e-12);
}

TEST(FailureAwareObjective, RegionalCorrelationSeparatesSpreadFromColocated) {
  // Under pure regional failures a placement colocated in one region is
  // unavailable whenever that region is; spreading across regions keeps
  // some quorum alive more often. I.i.d. site failures cannot see this
  // difference — the whole point of the correlated term.
  const net::LatencyMatrix matrix = net::small_synth(8, 11);
  const quorum::MajorityQuorum system{3, 2};
  core::FailureModel model;
  model.region_failure_prob = 0.1;
  model.site_region = {0, 0, 0, 0, 1, 1, 2, 2};
  core::FailureAwareOptions options;
  options.mc_samples = 40'000;
  const core::FailureAwareObjective objective{0.0, model, options};
  core::Placement colocated;
  colocated.site_of = {0, 1, 2};  // All of region 0.
  core::Placement spread;
  spread.site_of = {0, 4, 6};  // One site in each region.
  const auto c = objective.evaluate_detailed(matrix, system, colocated);
  const auto s = objective.evaluate_detailed(matrix, system, spread);
  EXPECT_NEAR(c.unavailability, 0.1, 0.01);  // Down iff region 0 is down.
  // Spread: down when at least two of three regions are down, ~0.028.
  EXPECT_LT(s.unavailability, 0.5 * c.unavailability);
}

TEST(FailureAwareObjective, ValidationRejectsBadInputs) {
  core::FailureModel model;
  model.site_failure_prob = 1.0;
  EXPECT_THROW((core::FailureAwareObjective{0.0, model}), std::invalid_argument);
  model = {};
  model.site_failure_prob = -0.1;
  EXPECT_THROW((core::FailureAwareObjective{0.0, model}), std::invalid_argument);
  model = {};
  core::FailureAwareOptions options;
  options.mc_samples = 0;
  EXPECT_THROW((core::FailureAwareObjective{0.0, model, options}),
               std::invalid_argument);
  // Regional model with too few region ids for the matrix.
  const net::LatencyMatrix matrix = net::small_synth(8, 7);
  model = {};
  model.region_failure_prob = 0.1;
  model.site_region = {0, 1};
  const core::FailureAwareObjective objective{0.0, model};
  const quorum::MajorityQuorum system{3, 2};
  core::Placement placement;
  placement.site_of = {0, 1, 2};
  EXPECT_THROW((void)objective.evaluate_detailed(matrix, system, placement),
               std::invalid_argument);
}

TEST(FailureAwareObjective, DemandWeightedConstructorRejectsBadPenalty) {
  // A negative or NaN penalty would turn the objective negative or NaN;
  // the demand-weighted constructor must reject it like the uniform one.
  const std::vector<double> demand{1.0, 2.0, 3.0, 4.0};
  core::FailureModel model;
  model.site_failure_prob = 0.1;
  core::FailureAwareOptions options;
  for (const double penalty : {-1.0, std::numeric_limits<double>::quiet_NaN()}) {
    options.unavailable_penalty_ms = penalty;
    EXPECT_THROW((core::FailureAwareObjective{0.0, model, demand, options}),
                 std::invalid_argument)
        << penalty;
    EXPECT_THROW((core::FailureAwareObjective{0.0, model, options}), std::invalid_argument)
        << penalty;
  }
}

TEST(FailureAwareObjective, DeltaEvaluatorRefusesAndLocalSearchFallsBack) {
  const net::LatencyMatrix matrix = net::small_synth(10, 5);
  const quorum::MajorityQuorum system{5, 3};
  core::FailureModel model;
  model.site_failure_prob = 0.1;
  const core::FailureAwareObjective objective{0.01, model};
  EXPECT_FALSE(objective.supports_delta());
  core::Placement placement;
  placement.site_of = {0, 1, 2, 3, 4};
  EXPECT_THROW((core::DeltaEvaluator{matrix, system, placement, objective}),
               std::invalid_argument);
  // local_search_placement silently falls back to the Naive engine and
  // still improves (or at least preserves) the failure-aware objective.
  core::LocalSearchOptions options;
  options.objective = &objective;
  const core::LocalSearchResult result =
      core::local_search_placement(matrix, system, placement, options);
  EXPECT_TRUE(result.placement.one_to_one());
  EXPECT_LE(result.objective, objective.evaluate(matrix, system, placement) + 1e-9);
}

// --- Engine retry/failover accounting --------------------------------------

sim::EngineConfig fault_engine_config() {
  sim::EngineConfig config;
  config.strategy = sim::EngineStrategy::Closest;
  config.warmup_ms = 200.0;
  config.duration_ms = 2'000.0;
  config.replications = 2;
  config.master_seed = 7;
  // Above the topology's worst quorum RTT (small_synth tops out ~210 ms),
  // so live attempts never time out; crashed attempts retry after 400 ms.
  config.retry.timeout_ms = 400.0;
  config.retry.max_attempts = 3;
  return config;
}

TEST(EngineRetry, AccountingInvariantHoldsUnderFaultStorms) {
  const net::LatencyMatrix matrix = net::small_synth(10, 13);
  const quorum::MajorityQuorum system{5, 3};
  const core::Placement placement =
      core::best_majority_placement(matrix, system).placement;
  const std::vector<double> rates(10, 0.02);
  sim::EngineConfig config = fault_engine_config();
  sim::FaultInjectorConfig fault;
  fault.seed = 31;
  fault.horizon_ms = config.warmup_ms + config.duration_ms;
  fault.site = sim::FaultProcess::for_down_probability(0.3, 120.0);
  config.outages = sim::FaultInjector{fault}.schedule(10);
  config.retry.backoff_base_ms = 10.0;
  config.retry.jitter_frac = 0.25;
  for (sim::FailoverMode mode : {sim::FailoverMode::None, sim::FailoverMode::Suspicion,
                                 sim::FailoverMode::Oracle}) {
    config.failover = mode;
    const sim::EngineResult result =
        run_engine(matrix, system, placement, rates, config);
    EXPECT_EQ(result.issued, result.completed + result.failed + result.abandoned)
        << static_cast<int>(mode);
    EXPECT_EQ(result.failed, 0u);  // Retry mode: losses retry, never fail.
    EXPECT_GT(result.retries, 0u);
    EXPECT_GE(result.unavailability, 0.0);
    EXPECT_LE(result.unavailability, 1.0);
    EXPECT_LE(result.retried_response.count(), result.response.count());
    // The degraded percentile folds give-up waits into the served tail, so
    // it can never fall below the served-only percentile.
    EXPECT_GE(result.degraded_p99_ms, result.p99_ms);
    for (const sim::ReplicationResult& replication : result.replications) {
      EXPECT_EQ(replication.issued,
                replication.completed + replication.failed + replication.abandoned);
    }
  }
}

TEST(EngineRetry, PermanentTotalOutageAbandonsEveryRequest) {
  const net::LatencyMatrix matrix = net::small_synth(8, 3);
  const quorum::MajorityQuorum system{3, 2};
  core::Placement placement;
  placement.site_of = {0, 1, 2};
  const std::vector<double> rates(8, 0.01);
  sim::EngineConfig config = fault_engine_config();
  for (std::size_t site : {0u, 1u, 2u}) {
    config.outages.push_back({site, 0.0, 1.0e9});
  }
  const sim::EngineResult result = run_engine(matrix, system, placement, rates, config);
  EXPECT_GT(result.issued, 0u);
  EXPECT_EQ(result.completed, 0u);
  EXPECT_EQ(result.abandoned, result.issued);
  EXPECT_DOUBLE_EQ(result.unavailability, 1.0);
  // Survivorship bias made visible: the served-only p99 has no samples at
  // all, while the degraded p99 reports the give-up chain every client
  // actually sat through (3 timeouts back to back, zero backoff).
  EXPECT_DOUBLE_EQ(result.p99_ms, 0.0);
  EXPECT_DOUBLE_EQ(result.degraded_p99_ms, 3 * 400.0);
}

TEST(EngineRetry, OracleFailoverRoutesAroundAPermanentCrash) {
  // One support site down for the whole run. Without failover, closest
  // clients whose quorum contains the victim retry into the same dead
  // quorum and abandon; Oracle re-choice completes them instead.
  const net::LatencyMatrix matrix = net::small_synth(10, 17);
  const quorum::MajorityQuorum system{5, 3};
  const core::Placement placement =
      core::best_majority_placement(matrix, system).placement;
  const std::vector<double> rates(10, 0.02);
  sim::EngineConfig config = fault_engine_config();
  config.outages = {{placement.site_of[0], 0.0, 1.0e9}};
  config.failover = sim::FailoverMode::None;
  const sim::EngineResult blind = run_engine(matrix, system, placement, rates, config);
  config.failover = sim::FailoverMode::Oracle;
  const sim::EngineResult oracle = run_engine(matrix, system, placement, rates, config);
  EXPECT_GT(blind.abandoned, 0u);
  EXPECT_EQ(oracle.abandoned, 0u);
  EXPECT_GT(oracle.completed, blind.completed);
  // Nothing unserved under Oracle failover -> the degraded percentile
  // degenerates to the served one.
  EXPECT_DOUBLE_EQ(oracle.degraded_p99_ms, oracle.p99_ms);
  // Suspicion failover sits between: the first attempt still walks into
  // the outage, the retry routes around it.
  config.failover = sim::FailoverMode::Suspicion;
  const sim::EngineResult suspicion =
      run_engine(matrix, system, placement, rates, config);
  EXPECT_EQ(suspicion.abandoned, 0u);
  EXPECT_GT(suspicion.retries, oracle.retries);
}

TEST(EngineRetry, ConfigValidation) {
  const net::LatencyMatrix matrix = net::small_synth(8, 3);
  const quorum::MajorityQuorum system{3, 2};
  core::Placement placement;
  placement.site_of = {0, 1, 2};
  const std::vector<double> rates(8, 0.01);
  sim::EngineConfig config;
  config.failover = sim::FailoverMode::Oracle;  // Failover needs the retry layer.
  EXPECT_THROW((void)run_engine(matrix, system, placement, rates, config),
               std::invalid_argument);
  config = {};
  config.retry.timeout_ms = -5.0;
  EXPECT_THROW((void)run_engine(matrix, system, placement, rates, config),
               std::invalid_argument);
  config = {};
  config.retry.timeout_ms = 100.0;
  config.failover = sim::FailoverMode::Suspicion;
  config.suspicion_ttl_ms = 0.0;
  EXPECT_THROW((void)run_engine(matrix, system, placement, rates, config),
               std::invalid_argument);
}

// --- Closed-loop validation: objective vs engine under faults ---------------

TEST(FaultValidation, ObjectivePredictsTheEngineUnderInjectedFaults) {
  // The acceptance band of this PR: on Planetlab-50 at rho = 0.3 with
  // every site cycling through exponential crash/recovery (stationary
  // down probability 8%, MTTR 2.5 s) and Oracle failover, the
  // FailureAwareObjective's conditional mean must predict the engine.
  // Bands pinned from measurement with margin:
  //   * first-attempt completions (the steady-state re-choice response the
  //     model prices; measured within 5%): 8%;
  //   * all completions (including the detection/timeout transient retried
  //     requests pay, which the model deliberately excludes; measured
  //     within 8.2%): 12%.
  const net::LatencyMatrix matrix = net::planetlab50_synth();
  const double service = 1.0;
  struct System {
    const quorum::QuorumSystem* system;
    core::Placement placement;
  };
  const quorum::GridQuorum grid{7};
  const quorum::MajorityQuorum majority{49, 25};
  const System systems[] = {
      {&grid, core::best_grid_placement(matrix, 7).placement},
      {&majority, core::best_majority_placement(matrix, majority).placement},
  };
  for (const System& sut : systems) {
    const quorum::QuorumSystem& system = *sut.system;
    const core::Placement& placement = sut.placement;
    const std::vector<double> site_load = core::site_loads_closest(
        matrix, system, placement, std::span<const double>{});
    const std::vector<double> rates = sim::scale_rates_to_peak_utilization(
        std::vector<double>(matrix.size(), 1.0), site_load, service, 0.3);
    const double total = std::accumulate(rates.begin(), rates.end(), 0.0);
    const double alpha = total * service * service;

    sim::EngineConfig config;
    config.strategy = sim::EngineStrategy::Closest;
    config.master_seed = 99;
    config.replications = 3;
    sim::FaultInjectorConfig fault;
    fault.seed = 777;
    fault.horizon_ms = config.warmup_ms + config.duration_ms;
    fault.site = sim::FaultProcess::for_down_probability(0.08, 2'500.0);
    const sim::FaultInjector injector{fault};
    config.outages = injector.schedule(matrix.size());
    const std::vector<std::size_t> support = placement.support_set();
    double max_rtt = 0.0;
    for (std::size_t v = 0; v < matrix.size(); ++v) {
      for (std::size_t w : support) max_rtt = std::max(max_rtt, matrix.rtt(v, w));
    }
    config.retry.timeout_ms = 1.25 * max_rtt + 25.0 * service;
    config.retry.max_attempts = 4;
    config.failover = sim::FailoverMode::Oracle;
    const sim::EngineResult result =
        run_engine(matrix, system, placement, rates, config);

    core::FailureModel model;
    model.site_failure_prob = injector.steady_state_down();
    core::FailureAwareOptions options;
    options.mc_samples = 20'000;
    const core::FailureAwareObjective objective{alpha, model, options};
    const auto detailed = objective.evaluate_detailed(matrix, system, placement);
    const double analytic = detailed.expected_response_ms + service;

    EXPECT_EQ(result.issued, result.completed + result.failed + result.abandoned);
    EXPECT_GT(result.retries, 0u) << system.name();  // Faults really fired.

    const double full = result.mean_response_ms;
    EXPECT_NEAR(full, analytic, 0.12 * analytic) << system.name();
    const double first_count = static_cast<double>(result.response.count()) -
                               static_cast<double>(result.retried_response.count());
    ASSERT_GT(first_count, 0.0);
    const double first_mean = (result.response.mean() * result.response.count() -
                               result.retried_response.mean() *
                                   result.retried_response.count()) /
                              first_count;
    EXPECT_NEAR(first_mean, analytic, 0.08 * analytic) << system.name();
    EXPECT_NEAR(result.unavailability, detailed.unavailability, 0.02)
        << system.name();
  }
}

}  // namespace
}  // namespace qp
