// Parity suite for the §6 closest-strategy Objective and its incremental
// DeltaEvaluator engine: ClosestStrategyObjective must match evaluate_closest
// exactly, the quorum-choice tables (per-client best quorum + best/second
// values with lazy repair) must match the naive closest evaluation to 1e-9
// across all four quorum-system families, every legal (element, site)
// candidate of the one-to-one search, quantized RTTs (where distance ties
// make the choice recompute paths exercise best_quorum's exact
// tie-breaking), demand-weighted scenarios, and randomized move sequences —
// and the search layers (local search engines, parallel scan,
// best_placement) must stay deterministic on top of it.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/delta_eval.hpp"
#include "core/local_search.hpp"
#include "core/objective.hpp"
#include "core/placement.hpp"
#include "core/response.hpp"
#include "net/synthetic.hpp"
#include "quorum/fpp.hpp"
#include "quorum/grid.hpp"
#include "quorum/majority.hpp"
#include "quorum/quorum_system.hpp"
#include "quorum/singleton.hpp"
#include "quorum/tree.hpp"
#include "sim/scenario.hpp"
#include "support/full_reevaluation.hpp"
#include "support/move_targets.hpp"

namespace qp::core {
namespace {

using net::LatencyMatrix;
using test_support::hosts_other;
using test_support::random_unused_site;

struct SystemCase {
  std::string label;
  std::unique_ptr<quorum::QuorumSystem> system;
};

/// The four quorum-system families: Majority (order-selection choice path),
/// Grid (row/column argmin path), FPP and Tree (enumerated path; Tree's
/// best_quorum tie-breaking is a DP, not a scan, so the engine must defer to
/// it exactly).
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
/// share sites, so per-client distances tie constantly.
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

std::vector<double> random_demand(std::size_t clients, common::Rng& rng) {
  std::vector<double> demand(clients);
  for (double& d : demand) d = rng.uniform(0.5, 20.0);
  return demand;
}

/// `m` with every RTT rounded to a multiple of `step` (the diagonal stays 0).
LatencyMatrix quantized(const LatencyMatrix& m, double step) {
  std::vector<std::vector<double>> rtt(m.size(), std::vector<double>(m.size()));
  for (std::size_t a = 0; a < m.size(); ++a) {
    for (std::size_t b = 0; b < m.size(); ++b) rtt[a][b] = step * std::round(m.rtt(a, b) / step);
  }
  return LatencyMatrix{std::move(rtt)};
}

double naive_if_moved(const LatencyMatrix& m, const quorum::QuorumSystem& system,
                      const Objective& objective, Placement placement, std::size_t element,
                      std::size_t site) {
  placement.site_of[element] = site;
  return objective.evaluate(m, system, placement);
}

TEST(ClosestObjective, MatchesEvaluateClosest) {
  for (const SystemCase& test_case : all_systems()) {
    const std::size_t n = test_case.system->universe_size();
    const LatencyMatrix m = net::small_synth(n + 9, 71);
    common::Rng rng{3};
    for (const double alpha : {0.0, 0.007, 7.0, 56.0}) {
      const ClosestStrategyObjective objective{alpha};
      for (int trial = 0; trial < 3; ++trial) {
        const Placement placement = trial == 2 ? random_many_to_one(m, n, rng)
                                               : random_one_to_one(m, n, rng);
        const double value = objective.evaluate(m, *test_case.system, placement);
        const Evaluation closest = evaluate_closest(m, *test_case.system, placement, alpha);
        EXPECT_NEAR(value, closest.avg_response_ms,
                    1e-12 * std::max(1.0, closest.avg_response_ms))
            << test_case.label << " alpha " << alpha << " trial " << trial;
      }
    }
  }
}

TEST(ClosestObjective, DemandWeightedMatchesEvaluateClosest) {
  for (const SystemCase& test_case : all_systems()) {
    const std::size_t n = test_case.system->universe_size();
    const LatencyMatrix m = net::small_synth(n + 8, 73);
    common::Rng rng{5};
    const std::vector<double> demand = random_demand(m.size(), rng);
    const ClosestStrategyObjective objective =
        ClosestStrategyObjective::for_demand(std::span<const double>{demand});
    EXPECT_FALSE(objective.client_weights().empty());
    for (int trial = 0; trial < 3; ++trial) {
      const Placement placement = trial == 2 ? random_many_to_one(m, n, rng)
                                             : random_one_to_one(m, n, rng);
      const double value = objective.evaluate(m, *test_case.system, placement);
      const Evaluation closest =
          evaluate_closest(m, *test_case.system, placement, objective.alpha(), demand);
      EXPECT_NEAR(value, closest.avg_response_ms,
                  1e-9 * std::max(1.0, closest.avg_response_ms))
          << test_case.label << " trial " << trial;
    }
  }
}

TEST(ClosestObjective, ConstantDemandCollapsesToUniformExactly) {
  const LatencyMatrix m = net::small_synth(16, 79);
  const quorum::GridQuorum grid{3};
  common::Rng rng{7};
  const Placement placement = random_one_to_one(m, grid.universe_size(), rng);
  const std::vector<double> constant(m.size(), 123.0);
  const ClosestStrategyObjective weighted =
      ClosestStrategyObjective::for_demand(std::span<const double>{constant});
  EXPECT_TRUE(weighted.client_weights().empty());
  const ClosestStrategyObjective uniform{weighted.alpha()};
  // Bitwise equality: constant demand runs the identical uniform arithmetic.
  EXPECT_EQ(weighted.evaluate(m, grid, placement), uniform.evaluate(m, grid, placement));
  const Evaluation via_demand =
      evaluate_closest(m, grid, placement, weighted.alpha(), constant);
  const Evaluation via_uniform = evaluate_closest(m, grid, placement, weighted.alpha());
  EXPECT_EQ(via_demand.avg_response_ms, via_uniform.avg_response_ms);
  EXPECT_EQ(via_demand.site_load, via_uniform.site_load);
}

TEST(ClosestDeltaEval, MatchesNaiveAtConstruction) {
  for (const SystemCase& test_case : all_systems()) {
    const std::size_t n = test_case.system->universe_size();
    const LatencyMatrix m = net::small_synth(n + 8, 83);
    common::Rng rng{11};
    const ClosestStrategyObjective objective{13.0};
    for (int trial = 0; trial < 5; ++trial) {
      const Placement placement = random_one_to_one(m, n, rng);
      const DeltaEvaluator eval{m, *test_case.system, placement, objective};
      const double naive = objective.evaluate(m, *test_case.system, placement);
      EXPECT_NEAR(eval.objective(), naive, 1e-9 * std::max(1.0, naive))
          << test_case.label << " trial " << trial;
    }
  }
}

TEST(ClosestDeltaEval, CandidateMovesMatchNaiveAcrossAllSystems) {
  // Every legal (element, site) candidate from a one-to-one placement, at
  // several alpha levels including 0: the provably-unchanged fast path, the
  // Majority keep-slot path, and the exact choice recompute all must match
  // the naive closest evaluation.
  common::Rng alpha_rng{1013};
  for (const SystemCase& test_case : all_systems()) {
    const std::size_t n = test_case.system->universe_size();
    const LatencyMatrix m = net::small_synth(n + 10, 89);
    common::Rng rng{13};
    for (int trial = 0; trial < 2; ++trial) {
      const ClosestStrategyObjective objective{trial == 0 ? 0.0
                                                          : alpha_rng.uniform(0.01, 90.0)};
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

TEST(ClosestDeltaEval, DistanceTiesMatchNaive) {
  // RTTs quantized to 40 ms steps give every client many elements at equal
  // distance, so quorum choices tie constantly: every candidate exercises
  // the exact tie-breaking replication against best_quorum.
  for (const SystemCase& test_case : all_systems()) {
    const std::size_t n = test_case.system->universe_size();
    const LatencyMatrix m = quantized(net::small_synth(n + 6, 97), 40.0);
    common::Rng rng{17};
    const ClosestStrategyObjective objective{23.0};
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

TEST(ClosestDeltaEval, DemandWeightedCandidatesMatchNaive) {
  for (const SystemCase& test_case : all_systems()) {
    const std::size_t n = test_case.system->universe_size();
    const LatencyMatrix m = net::small_synth(n + 7, 101);
    common::Rng rng{19};
    const std::vector<double> demand = random_demand(m.size(), rng);
    const ClosestStrategyObjective objective =
        ClosestStrategyObjective::for_demand(std::span<const double>{demand});
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

TEST(ClosestDeltaEval, RandomizedMoveSequencesStayInParity) {
  // apply_move repairs the distance rows and quorum-choice tables in place;
  // a random walk over unused sites must stay in parity with the naive
  // evaluation at every step.
  for (const SystemCase& test_case : all_systems()) {
    const std::size_t n = test_case.system->universe_size();
    const LatencyMatrix m = net::small_synth(n + 12, 103);
    common::Rng rng{23};
    const ClosestStrategyObjective objective{47.0};
    Placement placement = random_one_to_one(m, n, rng);
    DeltaEvaluator eval{m, *test_case.system, placement, objective};
    for (int step = 0; step < 25; ++step) {
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

TEST(ClosestDeltaEval, DemandWeightedMoveSequencesStayInParity) {
  for (const SystemCase& test_case : all_systems()) {
    const std::size_t n = test_case.system->universe_size();
    const LatencyMatrix m = net::small_synth(n + 9, 107);
    common::Rng rng{29};
    const std::vector<double> demand = random_demand(m.size(), rng);
    const ClosestStrategyObjective objective =
        ClosestStrategyObjective::for_demand(std::span<const double>{demand});
    Placement placement = random_one_to_one(m, n, rng);
    DeltaEvaluator eval{m, *test_case.system, placement, objective};
    for (int step = 0; step < 15; ++step) {
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

TEST(ClosestDeltaEval, SingletonGoesThroughTheEnumeratedPath) {
  const LatencyMatrix m = net::small_synth(10, 109);
  const quorum::SingletonQuorum singleton;
  const ClosestStrategyObjective objective{5.0};
  const Placement placement{std::vector<std::size_t>{3}};
  const DeltaEvaluator eval{m, singleton, placement, objective};
  for (std::size_t w = 0; w < m.size(); ++w) {
    const double naive = naive_if_moved(m, singleton, objective, placement, 0, w);
    EXPECT_NEAR(eval.objective_if_moved(0, w), naive, 1e-12 * std::max(1.0, naive));
  }
}

TEST(ClosestDeltaEval, GenericShapeServesAnySystemWithBestQuorum) {
  // Tree(h=4): the closest choice needs only best_quorum, so the evaluator
  // serves it on the Generic shape without reading the quorum table.
  const quorum::TreeQuorum tree{4};
  const std::size_t n = tree.universe_size();
  const LatencyMatrix m = net::small_synth(n + 9, 113);
  common::Rng rng{47};
  const ClosestStrategyObjective objective{33.0};
  const Placement initial = random_one_to_one(m, n, rng);

  const DeltaEvaluator eval{m, tree, initial, objective};
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t w = 0; w < m.size(); ++w) {
      if (hosts_other(initial, u, w)) continue;
      const double naive = naive_if_moved(m, tree, objective, initial, u, w);
      EXPECT_NEAR(eval.objective_if_moved(u, w), naive, 1e-9 * std::max(1.0, naive))
          << "move " << u << "->" << w;
    }
  }

  const test_support::FullReevaluation full{objective};
  LocalSearchOptions naive_options;
  naive_options.objective = &full;
  const LocalSearchResult naive = local_search_placement(m, tree, initial, naive_options);
  LocalSearchOptions delta_options;
  delta_options.threads = 1;
  delta_options.objective = &objective;
  const LocalSearchResult delta = local_search_placement(m, tree, initial, delta_options);
  EXPECT_GT(delta.moves, 0u);
  EXPECT_EQ(delta.placement.site_of, naive.placement.site_of);
  EXPECT_EQ(delta.moves, naive.moves);
  EXPECT_NEAR(delta.objective, naive.objective, 1e-9 * std::max(1.0, naive.objective));
}

TEST(ClosestLocalSearch, DeltaEngineMatchesNaiveEngine) {
  for (const SystemCase& test_case : all_systems()) {
    const std::size_t n = test_case.system->universe_size();
    const LatencyMatrix m = net::small_synth(n + 9, 127);
    common::Rng rng{31};
    const ClosestStrategyObjective objective{33.0};
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

TEST(ClosestLocalSearch, ParallelScanIsDeterministic) {
  const LatencyMatrix m = net::small_synth(30, 131);
  const quorum::GridQuorum grid{3};
  common::Rng rng{37};
  const std::vector<double> demand = random_demand(m.size(), rng);
  const ClosestStrategyObjective objective =
      ClosestStrategyObjective::for_demand(std::span<const double>{demand});
  const Placement initial = random_one_to_one(m, grid.universe_size(), rng);

  LocalSearchOptions serial;
  serial.threads = 1;
  serial.objective = &objective;
  const LocalSearchResult reference = local_search_placement(m, grid, initial, serial);

  for (std::size_t threads : {std::size_t{0}, std::size_t{2}, std::size_t{5}}) {
    LocalSearchOptions parallel = serial;
    parallel.threads = threads;
    const LocalSearchResult result = local_search_placement(m, grid, initial, parallel);
    EXPECT_EQ(result.placement.site_of, reference.placement.site_of)
        << "threads=" << threads;
    EXPECT_EQ(result.moves, reference.moves) << "threads=" << threads;
    EXPECT_EQ(result.objective, reference.objective) << "threads=" << threads;
  }
}

TEST(ClosestLocalSearch, NeverWorsensTheObjective) {
  const LatencyMatrix m = net::small_synth(18, 137);
  const quorum::MajorityQuorum majority{5, 3};
  common::Rng rng{41};
  const ClosestStrategyObjective objective{61.0};
  for (int trial = 0; trial < 5; ++trial) {
    const Placement initial = random_one_to_one(m, 5, rng);
    const double before = objective.evaluate(m, majority, initial);
    LocalSearchOptions options;
    options.objective = &objective;
    const LocalSearchResult result = local_search_placement(m, majority, initial, options);
    EXPECT_LE(result.objective, before + 1e-12);
    EXPECT_NEAR(result.objective, objective.evaluate(m, majority, result.placement), 1e-12);
    EXPECT_TRUE(result.placement.one_to_one());
  }
}

TEST(ClosestLocalSearch, ScenarioDemandObjectiveEndToEnd) {
  // The scenario helpers thread the Pareto demand vector into the closest
  // objective; the whole search stack must run on top of it.
  sim::ScenarioConfig config;
  config.site_count = 30;
  config.seed = 2026;
  const sim::Scenario scenario = sim::make_scenario(config);
  const ClosestStrategyObjective objective = scenario.closest_objective();
  EXPECT_GT(objective.alpha(), 0.0);
  EXPECT_EQ(objective.client_weights().size(), scenario.site_count());
  const quorum::GridQuorum grid{3};
  const PlacementSearchResult constructive = best_placement(
      scenario.matrix, grid,
      [&](std::size_t v0) { return grid_placement_for_client(scenario.matrix, 3, v0); },
      {}, objective);
  LocalSearchOptions options;
  options.objective = &objective;
  options.threads = 1;
  const LocalSearchResult polished =
      local_search_placement(scenario.matrix, grid, constructive.placement, options);
  EXPECT_LE(polished.objective, constructive.avg_network_delay + 1e-9);
  EXPECT_NEAR(polished.objective,
              objective.evaluate(scenario.matrix, grid, polished.placement), 1e-12);
}

}  // namespace
}  // namespace qp::core
