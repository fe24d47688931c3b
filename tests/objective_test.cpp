// Parity suite for the pluggable Objective layer and the load-aware
// (alpha > 0) incremental path: LoadAwareObjective must match the §7
// balanced-strategy response time, the DeltaEvaluator load-delta tables must
// match the naive objective to 1e-9 across all four quorum-system families,
// random demand levels, and randomized move sequences of the one-to-one
// search (moves to unused sites, where each element carries its own load),
// and the parallel neighborhood scan must stay deterministic for alpha > 0.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/delta_eval.hpp"
#include "core/failure_objective.hpp"
#include "core/local_search.hpp"
#include "core/objective.hpp"
#include "core/placement.hpp"
#include "core/response.hpp"
#include "net/embedding.hpp"
#include "net/synthetic.hpp"
#include "quorum/fpp.hpp"
#include "quorum/grid.hpp"
#include "quorum/majority.hpp"
#include "quorum/quorum_system.hpp"
#include "quorum/tree.hpp"
#include "sim/scenario.hpp"
#include "support/full_reevaluation.hpp"
#include "support/move_targets.hpp"
#include "support/net_oracles.hpp"

namespace qp::core {
namespace {

using qp::net::test_support::densify;
using test_support::hosts_other;
using test_support::random_unused_site;

using net::LatencyMatrix;

struct SystemCase {
  std::string label;
  std::unique_ptr<quorum::QuorumSystem> system;
};

/// The four quorum-system families: Majority (order-statistic delta path),
/// Grid (row/column path), FPP and Tree (enumerated path). Tree matters
/// most here: its uniform load is NOT element-symmetric, so the load term
/// genuinely reshapes the objective rather than shifting it by a constant.
std::vector<SystemCase> all_systems() {
  std::vector<SystemCase> cases;
  cases.push_back({"majority", std::make_unique<quorum::MajorityQuorum>(9, 5)});
  cases.push_back({"grid", std::make_unique<quorum::GridQuorum>(3)});
  cases.push_back({"fpp", std::make_unique<quorum::FppQuorum>(2)});
  cases.push_back({"tree", std::make_unique<quorum::TreeQuorum>(2)});
  return cases;
}

Placement random_one_to_one(const LatencyMatrix& m, std::size_t universe,
                            common::Rng& rng) {
  return Placement{rng.sample_without_replacement(m.size(), universe)};
}

/// Random placement with deliberate colocation: roughly half the elements
/// share sites, so several elements add to one site's load.
Placement random_many_to_one(const LatencyMatrix& m, std::size_t universe,
                             common::Rng& rng) {
  Placement placement;
  placement.site_of.resize(universe);
  const std::size_t distinct = std::max<std::size_t>(1, universe / 2);
  const std::vector<std::size_t> sites = rng.sample_without_replacement(m.size(), distinct);
  for (std::size_t u = 0; u < universe; ++u) {
    placement.site_of[u] = sites[rng.below(distinct)];
  }
  return placement;
}

double naive_if_moved(const LatencyMatrix& m, const quorum::QuorumSystem& system,
                      const Objective& objective, Placement placement,
                      std::size_t element, std::size_t site) {
  placement.site_of[element] = site;
  return objective.evaluate(m, system, placement);
}

TEST(Objective, NetworkDelayMatchesAverageUniformNetworkDelay) {
  for (const SystemCase& test_case : all_systems()) {
    const std::size_t n = test_case.system->universe_size();
    const LatencyMatrix m = net::small_synth(n + 7, 41);
    common::Rng rng{5};
    const Placement placement = random_one_to_one(m, n, rng);
    const double objective =
        network_delay_objective().evaluate(m, *test_case.system, placement);
    // avg_v E_uniform[max d(v, f(u))], one allocating row copy per client.
    double naive = 0.0;
    for (std::size_t v = 0; v < m.size(); ++v) {
      std::vector<double> distances(n);
      for (std::size_t u = 0; u < n; ++u) distances[u] = m.rtt(v, placement.site_of[u]);
      naive += test_case.system->expected_max_uniform(distances);
    }
    naive /= static_cast<double>(m.size());
    EXPECT_DOUBLE_EQ(objective, naive) << test_case.label;
    EXPECT_EQ(objective,
              evaluate_balanced(m, *test_case.system, placement, 0.0).avg_response_ms)
        << test_case.label;
  }
}

TEST(Objective, EvaluateRejectsOutOfRangePlacement) {
  // Site 5000 is past the 50-site matrix: evaluate must refuse it before a
  // per-client gather reads past a row, whatever the objective.
  const LatencyMatrix m = net::planetlab50_synth();
  const quorum::GridQuorum grid{2};
  const Placement placement{{0, 1, 2, 5000}};
  const LoadAwareObjective load_aware{7.0};
  const ClosestStrategyObjective closest{7.0};
  FailureModel failures;
  failures.site_failure_prob = 0.05;
  const FailureAwareObjective failure_aware{7.0, failures};
  for (const Objective* objective :
       {&network_delay_objective(), static_cast<const Objective*>(&load_aware),
        static_cast<const Objective*>(&closest),
        static_cast<const Objective*>(&failure_aware)}) {
    EXPECT_THROW((void)objective->evaluate(m, grid, placement), std::out_of_range)
        << objective->name();
  }
}

TEST(Objective, LoadAwareMatchesBalancedEvaluation) {
  // The load-aware objective is exactly the §7 balanced-strategy response
  // time (per-element execution): compare against evaluate_balanced across
  // systems, placements (including many-to-one), and alpha levels.
  for (const SystemCase& test_case : all_systems()) {
    const std::size_t n = test_case.system->universe_size();
    const LatencyMatrix m = net::small_synth(n + 9, 43);
    common::Rng rng{17};
    for (const double alpha : {0.007, 7.0, 56.0}) {
      const LoadAwareObjective objective{alpha};
      for (int trial = 0; trial < 3; ++trial) {
        const Placement placement = trial == 2 ? random_many_to_one(m, n, rng)
                                               : random_one_to_one(m, n, rng);
        const double value = objective.evaluate(m, *test_case.system, placement);
        const Evaluation balanced =
            evaluate_balanced(m, *test_case.system, placement, alpha);
        EXPECT_NEAR(value, balanced.avg_response_ms,
                    1e-9 * std::max(1.0, balanced.avg_response_ms))
            << test_case.label << " alpha " << alpha << " trial " << trial;
      }
    }
  }
}

TEST(Objective, ForDemandScalesTheServiceTime) {
  const LoadAwareObjective objective = LoadAwareObjective::for_demand(16'000.0);
  EXPECT_DOUBLE_EQ(objective.alpha(), kQuWriteServiceMs * 16'000.0);
  EXPECT_THROW(LoadAwareObjective{-1.0}, std::invalid_argument);
}

TEST(LoadAwareDeltaEval, MatchesNaiveAtConstruction) {
  for (const SystemCase& test_case : all_systems()) {
    const std::size_t n = test_case.system->universe_size();
    const LatencyMatrix m = net::small_synth(n + 8, 107);
    common::Rng rng{7};
    const LoadAwareObjective objective{11.0};
    for (int trial = 0; trial < 5; ++trial) {
      const Placement placement = random_one_to_one(m, n, rng);
      const DeltaEvaluator eval{m, *test_case.system, placement, objective};
      const double naive = objective.evaluate(m, *test_case.system, placement);
      EXPECT_NEAR(eval.objective(), naive, 1e-9 * std::max(1.0, naive))
          << test_case.label << " trial " << trial;
    }
  }
}

TEST(LoadAwareDeltaEval, CandidateMovesMatchNaiveAcrossAllSystems) {
  // Every legal (element, site) candidate from a one-to-one placement (each
  // unused site and the element's own), at several random demand levels,
  // must match the naive objective.
  common::Rng demand_rng{1009};
  for (const SystemCase& test_case : all_systems()) {
    const std::size_t n = test_case.system->universe_size();
    const LatencyMatrix m = net::small_synth(n + 10, 223);
    common::Rng rng{13};
    for (int trial = 0; trial < 2; ++trial) {
      const LoadAwareObjective objective{demand_rng.uniform(0.01, 90.0)};
      const Placement placement = random_one_to_one(m, n, rng);
      const DeltaEvaluator eval{m, *test_case.system, placement, objective};
      for (std::size_t u = 0; u < n; ++u) {
        for (std::size_t w = 0; w < m.size(); ++w) {
          if (hosts_other(placement, u, w)) continue;
          const double delta = eval.objective_if_moved(u, w);
          const double naive =
              naive_if_moved(m, *test_case.system, objective, placement, u, w);
          EXPECT_NEAR(delta, naive, 1e-9 * std::max(1.0, naive))
              << test_case.label << " move " << u << "->" << w;
        }
      }
    }
  }
}

TEST(LoadAwareDeltaEval, RandomizedMoveSequencesStayInParity) {
  for (const SystemCase& test_case : all_systems()) {
    const std::size_t n = test_case.system->universe_size();
    const LatencyMatrix m = net::small_synth(n + 12, 307);
    common::Rng rng{31};
    const LoadAwareObjective objective{47.0};
    Placement placement = random_one_to_one(m, n, rng);
    DeltaEvaluator eval{m, *test_case.system, placement, objective};
    for (int step = 0; step < 20; ++step) {
      const std::size_t u = static_cast<std::size_t>(rng.below(n));
      const std::size_t w = random_unused_site(placement, m.size(), rng);
      const double predicted = eval.objective_if_moved(u, w);
      eval.apply_move(u, w);
      placement.site_of[u] = w;
      const double naive = objective.evaluate(m, *test_case.system, placement);
      EXPECT_NEAR(predicted, naive, 1e-9 * std::max(1.0, naive))
          << test_case.label << " step " << step;
      EXPECT_NEAR(eval.objective(), naive, 1e-9 * std::max(1.0, naive))
          << test_case.label << " step " << step;
    }
  }
}

TEST(LoadAwareLocalSearch, DeltaEngineMatchesNaiveEngine) {
  for (const SystemCase& test_case : all_systems()) {
    const std::size_t n = test_case.system->universe_size();
    const LatencyMatrix m = net::small_synth(n + 9, 601);
    common::Rng rng{43};
    const LoadAwareObjective objective{33.0};
    const Placement initial = random_one_to_one(m, n, rng);

    const test_support::FullReevaluation full{objective};
    LocalSearchOptions naive_options;
    naive_options.objective = &full;
    const LocalSearchResult naive =
        local_search_placement(m, *test_case.system, initial, naive_options);

    LocalSearchOptions delta_options;
    delta_options.threads = 1;
    delta_options.objective = &objective;
    const LocalSearchResult delta =
        local_search_placement(m, *test_case.system, initial, delta_options);

    EXPECT_EQ(delta.placement.site_of, naive.placement.site_of) << test_case.label;
    EXPECT_EQ(delta.moves, naive.moves) << test_case.label;
    EXPECT_NEAR(delta.objective, naive.objective, 1e-9 * std::max(1.0, naive.objective))
        << test_case.label;
  }
}

TEST(LoadAwareLocalSearch, ParallelScanIsDeterministicForAlphaPositive) {
  const LatencyMatrix m = net::small_synth(24, 701);
  const quorum::TreeQuorum tree{2};
  common::Rng rng{53};
  const LoadAwareObjective objective{29.0};
  const Placement initial = random_one_to_one(m, tree.universe_size(), rng);

  LocalSearchOptions serial;
  serial.threads = 1;
  serial.objective = &objective;
  const LocalSearchResult reference = local_search_placement(m, tree, initial, serial);

  for (std::size_t threads : {std::size_t{0}, std::size_t{2}, std::size_t{5}}) {
    LocalSearchOptions parallel = serial;
    parallel.threads = threads;
    const LocalSearchResult result = local_search_placement(m, tree, initial, parallel);
    EXPECT_EQ(result.placement.site_of, reference.placement.site_of)
        << "threads=" << threads;
    EXPECT_EQ(result.moves, reference.moves) << "threads=" << threads;
    EXPECT_EQ(result.objective, reference.objective) << "threads=" << threads;
  }
}

TEST(LoadAwareLocalSearch, NeverWorsensTheObjective) {
  const LatencyMatrix m = net::small_synth(18, 5);
  const quorum::GridQuorum grid{2};
  common::Rng rng{9};
  const LoadAwareObjective objective{61.0};
  for (int trial = 0; trial < 5; ++trial) {
    const Placement initial = random_one_to_one(m, 4, rng);
    const double before = objective.evaluate(m, grid, initial);
    LocalSearchOptions options;
    options.objective = &objective;
    const LocalSearchResult result = local_search_placement(m, grid, initial, options);
    EXPECT_LE(result.objective, before + 1e-12);
    EXPECT_NEAR(result.objective, objective.evaluate(m, grid, result.placement), 1e-12);
    EXPECT_TRUE(result.placement.one_to_one());
  }
}

TEST(ObjectiveBestPlacement, LoadAwareOverloadPicksTheObjectiveWinner) {
  const LatencyMatrix m = net::small_synth(20, 997);
  const quorum::MajorityQuorum majority{5, 3};
  const LoadAwareObjective objective{19.0};
  // Hand-rolled serial scan with the historical tie-breaking, scored by the
  // load-aware objective.
  PlacementSearchResult expected;
  expected.avg_network_delay = std::numeric_limits<double>::infinity();
  for (std::size_t v0 = 0; v0 < m.size(); ++v0) {
    Placement placement = majority_ball_placement(m, majority.universe_size(), v0);
    const double value = objective.evaluate(m, majority, placement);
    if (value < expected.avg_network_delay) {
      expected.avg_network_delay = value;
      expected.anchor_client = v0;
      expected.placement = std::move(placement);
    }
  }
  const PlacementSearchResult actual = best_placement(
      m, majority,
      [&](std::size_t v0) { return majority_ball_placement(m, majority.universe_size(), v0); },
      {}, objective);
  EXPECT_EQ(actual.anchor_client, expected.anchor_client);
  EXPECT_EQ(actual.placement.site_of, expected.placement.site_of);
  EXPECT_NEAR(actual.avg_network_delay, expected.avg_network_delay,
              1e-12 * std::max(1.0, expected.avg_network_delay));
}

std::vector<double> random_demand(std::size_t clients, common::Rng& rng) {
  std::vector<double> demand(clients);
  for (double& d : demand) d = rng.uniform(0.5, 20.0);
  return demand;
}

TEST(DemandWeightedObjective, LoadAwareMatchesWeightedBalancedEvaluation) {
  // The demand-weighted load-aware objective is the demand-weighted §7
  // balanced response: per-client terms weighted by demand share, load model
  // untouched (the balanced load is demand-invariant).
  for (const SystemCase& test_case : all_systems()) {
    const std::size_t n = test_case.system->universe_size();
    const LatencyMatrix m = net::small_synth(n + 9, 211);
    common::Rng rng{67};
    const std::vector<double> demand = random_demand(m.size(), rng);
    const LoadAwareObjective objective{11.0, std::span<const double>{demand}};
    EXPECT_FALSE(objective.client_weights().empty());
    for (int trial = 0; trial < 2; ++trial) {
      const Placement placement = trial == 1 ? random_many_to_one(m, n, rng)
                                             : random_one_to_one(m, n, rng);
      const double value = objective.evaluate(m, *test_case.system, placement);
      const Evaluation balanced =
          evaluate_balanced(m, *test_case.system, placement, 11.0, demand);
      EXPECT_NEAR(value, balanced.avg_response_ms,
                  1e-9 * std::max(1.0, balanced.avg_response_ms))
          << test_case.label << " trial " << trial;
    }
  }
}

TEST(DemandWeightedObjective, ConstantDemandCollapsesToUniformExactly) {
  const LatencyMatrix m = net::small_synth(14, 223);
  const quorum::MajorityQuorum majority{5, 3};
  common::Rng rng{71};
  const Placement placement = random_one_to_one(m, 5, rng);
  const std::vector<double> constant(m.size(), 4000.0);
  const LoadAwareObjective weighted =
      LoadAwareObjective::for_demand(std::span<const double>{constant});
  EXPECT_TRUE(weighted.client_weights().empty());
  EXPECT_DOUBLE_EQ(weighted.alpha(), kQuWriteServiceMs * 4000.0);
  const LoadAwareObjective uniform{weighted.alpha()};
  // Bitwise equality: constant demand runs the identical uniform arithmetic.
  EXPECT_EQ(weighted.evaluate(m, majority, placement),
            uniform.evaluate(m, majority, placement));
  const Evaluation via_demand = evaluate_balanced(m, majority, placement, 28.0, constant);
  const Evaluation via_uniform = evaluate_balanced(m, majority, placement, 28.0);
  EXPECT_EQ(via_demand.avg_response_ms, via_uniform.avg_response_ms);
}

TEST(DemandWeightedObjective, DeltaEvaluatorMatchesNaiveUnderDemand) {
  // Demand weights thread through every DeltaEvaluator mode: candidates and
  // committed moves stay in parity with the weighted naive evaluation.
  for (const SystemCase& test_case : all_systems()) {
    const std::size_t n = test_case.system->universe_size();
    const LatencyMatrix m = net::small_synth(n + 8, 227);
    common::Rng rng{73};
    const std::vector<double> demand = random_demand(m.size(), rng);
    const LoadAwareObjective objective{17.0, std::span<const double>{demand}};
    Placement placement = random_one_to_one(m, n, rng);
    DeltaEvaluator eval{m, *test_case.system, placement, objective};
    const double naive0 = objective.evaluate(m, *test_case.system, placement);
    EXPECT_NEAR(eval.objective(), naive0, 1e-9 * std::max(1.0, naive0)) << test_case.label;
    for (int step = 0; step < 10; ++step) {
      const std::size_t u = static_cast<std::size_t>(rng.below(n));
      const std::size_t w = random_unused_site(placement, m.size(), rng);
      const double predicted = eval.objective_if_moved(u, w);
      eval.apply_move(u, w);
      placement.site_of[u] = w;
      const double naive = objective.evaluate(m, *test_case.system, placement);
      EXPECT_NEAR(predicted, naive, 1e-9 * std::max(1.0, naive))
          << test_case.label << " step " << step;
      EXPECT_NEAR(eval.objective(), naive, 1e-9 * std::max(1.0, naive))
          << test_case.label << " step " << step;
    }
  }
}

TEST(DemandWeightedObjective, BestPlacementAndLocalSearchConsumeWeights) {
  const LatencyMatrix m = net::small_synth(20, 229);
  const quorum::GridQuorum grid{3};
  common::Rng rng{79};
  const std::vector<double> demand = random_demand(m.size(), rng);
  const NetworkDelayObjective objective{std::span<const double>{demand}};
  // best_placement scored by the demand-weighted objective matches a serial
  // scan of the same evaluations.
  PlacementSearchResult expected;
  expected.avg_network_delay = std::numeric_limits<double>::infinity();
  for (std::size_t v0 = 0; v0 < m.size(); ++v0) {
    Placement placement = grid_placement_for_client(m, 3, v0);
    const double value = objective.evaluate(m, grid, placement);
    if (value < expected.avg_network_delay) {
      expected.avg_network_delay = value;
      expected.anchor_client = v0;
      expected.placement = std::move(placement);
    }
  }
  const PlacementSearchResult actual = best_placement(
      m, grid, [&](std::size_t v0) { return grid_placement_for_client(m, 3, v0); }, {},
      objective);
  EXPECT_EQ(actual.anchor_client, expected.anchor_client);
  EXPECT_EQ(actual.placement.site_of, expected.placement.site_of);

  LocalSearchOptions delta_options;
  delta_options.objective = &objective;
  delta_options.threads = 1;
  const LocalSearchResult delta = local_search_placement(m, grid, actual.placement,
                                                         delta_options);
  const test_support::FullReevaluation full{objective};
  LocalSearchOptions naive_options = delta_options;
  naive_options.objective = &full;
  const LocalSearchResult naive = local_search_placement(m, grid, actual.placement,
                                                         naive_options);
  EXPECT_EQ(delta.placement.site_of, naive.placement.site_of);
  EXPECT_EQ(delta.moves, naive.moves);
}

/// Two custom systems sharing a name but differing in universe size: each
/// must keep its own memoized load (a cache keyed by name alone would hand
/// one the other's table).
class NamedStubSystem final : public quorum::QuorumSystem {
 public:
  explicit NamedStubSystem(std::size_t n) : n_(n) {}
  [[nodiscard]] std::size_t universe_size() const noexcept override { return n_; }
  [[nodiscard]] std::string name() const override { return "cache-collision-stub"; }
  [[nodiscard]] double quorum_count() const noexcept override { return 1.0; }
  [[nodiscard]] quorum::Quorum best_quorum(std::span<const double> values) const override {
    quorum::check_values_size(*this, values);
    return all();
  }
  [[nodiscard]] double expected_max_uniform(std::span<const double> values) const override {
    quorum::check_values_size(*this, values);
    double worst = 0.0;
    for (double x : values) worst = std::max(worst, x);
    return worst;
  }
  [[nodiscard]] std::vector<double> uniform_load() const override {
    // Size-dependent table so a cache collision is observable.
    return std::vector<double>(n_, static_cast<double>(n_));
  }
  [[nodiscard]] double optimal_load() const override { return 1.0; }
  [[nodiscard]] std::vector<quorum::Quorum> sample_quorums(std::size_t count,
                                                           common::Rng&) const override {
    return std::vector<quorum::Quorum>(count, all());
  }

 protected:
  void generate_quorums(quorum::QuorumTable& table) const override { table.add(all()); }

 private:
  [[nodiscard]] quorum::Quorum all() const {
    quorum::Quorum all(n_);
    for (std::size_t u = 0; u < n_; ++u) all[u] = u;
    return all;
  }

  std::size_t n_;
};

TEST(QuorumLoadHook, CacheKeyIncludesUniverseSize) {
  const NamedStubSystem small{3};
  const NamedStubSystem large{5};
  const std::span<const double> small_load = small.uniform_load_cached();
  const std::span<const double> large_load = large.uniform_load_cached();
  ASSERT_EQ(small_load.size(), 3u);
  ASSERT_EQ(large_load.size(), 5u);  // Pre-fix this returned the 3-entry table.
  for (double x : small_load) EXPECT_DOUBLE_EQ(x, 3.0);
  for (double x : large_load) EXPECT_DOUBLE_EQ(x, 5.0);
  // Memoized per key: repeated calls return identical storage.
  EXPECT_EQ(small.uniform_load_cached().data(), small_load.data());
  EXPECT_EQ(large.uniform_load_cached().data(), large_load.data());
}

TEST(QuorumLoadHook, CachedUniformLoadMatchesVirtual) {
  for (const SystemCase& test_case : all_systems()) {
    const std::vector<double> direct = test_case.system->uniform_load();
    const std::span<const double> cached = test_case.system->uniform_load_cached();
    ASSERT_EQ(cached.size(), direct.size()) << test_case.label;
    for (std::size_t u = 0; u < direct.size(); ++u) {
      EXPECT_DOUBLE_EQ(cached[u], direct[u]) << test_case.label << " element " << u;
    }
    // Second call returns the identical storage (memoized).
    EXPECT_EQ(test_case.system->uniform_load_cached().data(), cached.data());
  }
}

// ------------------------------------------------ Implicit latency spaces

TEST(ObjectiveOnLatencySpace, EmbeddingMatchesDensified) {
  // Every evaluator reads the space through rtt / fill_rtts, and densify()
  // keeps those doubles, so an embedding and its dense copy must agree on
  // every objective and every evaluate_* entry point.
  sim::ScenarioConfig config;
  config.site_count = 40;
  const sim::SparseScenario scenario = sim::make_sparse_scenario(config);
  const net::LatencyEmbedding& space = scenario.space;
  const LatencyMatrix dense = densify(space);
  const std::span<const double> demand = scenario.client_demand;

  const NetworkDelayObjective delay_weighted{demand};
  const LoadAwareObjective load_aware{7.0};
  const LoadAwareObjective load_aware_weighted{7.0, demand};
  const ClosestStrategyObjective closest{7.0};
  const ClosestStrategyObjective closest_weighted{7.0, demand};
  // One-to-one Majority takes the exact order-statistic path, Grid 3x3 (9
  // support sites) the exact failure-set enumeration.
  FailureModel failures;
  failures.site_failure_prob = 0.05;
  const FailureAwareObjective failure_aware{7.0, failures, demand};

  const quorum::GridQuorum grid{3};
  const quorum::MajorityQuorum majority{9, 5};
  common::Rng rng{23};
  for (const quorum::QuorumSystem* system :
       {static_cast<const quorum::QuorumSystem*>(&grid),
        static_cast<const quorum::QuorumSystem*>(&majority)}) {
    const std::size_t n = system->universe_size();
    const Placement placement = random_one_to_one(dense, n, rng);
    for (const Objective* objective :
         {&network_delay_objective(), static_cast<const Objective*>(&delay_weighted),
          static_cast<const Objective*>(&load_aware),
          static_cast<const Objective*>(&load_aware_weighted),
          static_cast<const Objective*>(&closest),
          static_cast<const Objective*>(&closest_weighted),
          static_cast<const Objective*>(&failure_aware)}) {
      EXPECT_DOUBLE_EQ(objective->evaluate(space, *system, placement),
                       objective->evaluate(dense, *system, placement))
          << system->name() << " " << objective->name();
    }

    ExplicitStrategy uniform;
    uniform.quorums = system->shared_quorums();
    uniform.probability.assign(
        dense.size(), std::vector<double>(uniform.quorums->size(),
                                          1.0 / static_cast<double>(uniform.quorums->size())));
    const auto expect_same = [&](const Evaluation& a, const Evaluation& b, const char* what) {
      EXPECT_DOUBLE_EQ(a.avg_response_ms, b.avg_response_ms) << system->name() << " " << what;
      EXPECT_DOUBLE_EQ(a.avg_network_delay_ms, b.avg_network_delay_ms)
          << system->name() << " " << what;
    };
    expect_same(evaluate_balanced(space, *system, placement, 7.0, demand),
                evaluate_balanced(dense, *system, placement, 7.0, demand), "balanced");
    expect_same(evaluate_closest(space, *system, placement, 7.0, demand),
                evaluate_closest(dense, *system, placement, 7.0, demand), "closest");
    expect_same(evaluate_explicit(space, *system, placement, 7.0, uniform, demand),
                evaluate_explicit(dense, *system, placement, 7.0, uniform, demand),
                "explicit");
  }
}

}  // namespace
}  // namespace qp::core
