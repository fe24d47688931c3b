// Parity suite for the incremental evaluation subsystem: the delta and
// workspace paths must match the naive objective to 1e-9 across all four
// quorum-system families, random matrices, and randomized move sequences of
// the one-to-one local search (moves to unused sites) — the parallel
// neighborhood scan must pick the exact same move as the serial one, and
// the evaluator must refuse what lies outside that contract.
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
#include "common/thread_pool.hpp"
#include "core/delta_eval.hpp"
#include "core/eval_workspace.hpp"
#include "core/local_search.hpp"
#include "core/objective.hpp"
#include "core/placement.hpp"
#include "net/embedding.hpp"
#include "net/latency_space.hpp"
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
#include "support/reference_search.hpp"

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

/// The four quorum-system families of the paper's evaluation: Majority
/// (order-statistic delta path), Grid (row/column path), FPP and Tree
/// (enumerated path).
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

double naive_objective_if_moved(const LatencyMatrix& m, const quorum::QuorumSystem& system,
                                Placement placement, std::size_t element,
                                std::size_t site) {
  placement.site_of[element] = site;
  return network_delay_objective().evaluate(m, system, placement);
}

TEST(DeltaEval, MatchesNaiveObjectiveAtConstruction) {
  for (const SystemCase& test_case : all_systems()) {
    const std::size_t n = test_case.system->universe_size();
    const LatencyMatrix m = net::small_synth(n + 8, 101);
    common::Rng rng{7};
    for (int trial = 0; trial < 5; ++trial) {
      const Placement placement = random_one_to_one(m, n, rng);
      const DeltaEvaluator eval{m, *test_case.system, placement};
      const double naive = network_delay_objective().evaluate(m, *test_case.system, placement);
      EXPECT_NEAR(eval.objective(), naive, 1e-9 * std::max(1.0, naive))
          << test_case.label << " trial " << trial;
    }
  }
}

TEST(DeltaEval, CandidateMovesMatchNaiveAcrossAllSystems) {
  for (const SystemCase& test_case : all_systems()) {
    const std::size_t n = test_case.system->universe_size();
    const LatencyMatrix m = net::small_synth(n + 10, 211);
    common::Rng rng{13};
    const Placement placement = random_one_to_one(m, n, rng);
    const DeltaEvaluator eval{m, *test_case.system, placement};
    // Every legal (element, site) candidate: each unused site and the no-op
    // move to the element's own site.
    for (std::size_t u = 0; u < n; ++u) {
      for (std::size_t w = 0; w < m.size(); ++w) {
        if (hosts_other(placement, u, w)) continue;
        const double delta = eval.objective_if_moved(u, w);
        const double naive =
            naive_objective_if_moved(m, *test_case.system, placement, u, w);
        EXPECT_NEAR(delta, naive, 1e-9 * std::max(1.0, naive))
            << test_case.label << " move " << u << "->" << w;
      }
    }
  }
}

TEST(DeltaEval, RandomizedMoveSequencesStayInParity) {
  for (const SystemCase& test_case : all_systems()) {
    const std::size_t n = test_case.system->universe_size();
    const LatencyMatrix m = net::small_synth(n + 12, 307);
    common::Rng rng{29};
    Placement placement = random_one_to_one(m, n, rng);
    DeltaEvaluator eval{m, *test_case.system, placement};
    for (int step = 0; step < 20; ++step) {
      const std::size_t u = static_cast<std::size_t>(rng.below(n));
      const std::size_t w = random_unused_site(placement, m.size(), rng);
      const double predicted = eval.objective_if_moved(u, w);
      eval.apply_move(u, w);
      placement.site_of[u] = w;
      const double naive = network_delay_objective().evaluate(m, *test_case.system, placement);
      EXPECT_NEAR(predicted, naive, 1e-9 * std::max(1.0, naive))
          << test_case.label << " step " << step;
      EXPECT_NEAR(eval.objective(), naive, 1e-9 * std::max(1.0, naive))
          << test_case.label << " step " << step;
    }
  }
}

TEST(DeltaEval, IncrementalRepairMatchesFreshRebuildBitwise) {
  // apply_move now repairs the per-client tables in place instead of
  // rebuilding; the repaired state must equal a freshly-constructed
  // evaluator's (same sorted multisets, same accumulation order), for the
  // network-delay objective, the load-aware one-to-one invariant and the
  // closest strategy's repaired quorum-choice tables alike.
  const LoadAwareObjective load_aware{9.0};
  const ClosestStrategyObjective closest{9.0};
  for (const SystemCase& test_case : all_systems()) {
    const std::size_t n = test_case.system->universe_size();
    const LatencyMatrix m = net::small_synth(n + 11, 317);
    for (const Objective* objective :
         {&network_delay_objective(), static_cast<const Objective*>(&load_aware),
          static_cast<const Objective*>(&closest)}) {
      common::Rng rng{37};
      Placement placement = random_one_to_one(m, n, rng);
      DeltaEvaluator eval{m, *test_case.system, placement, *objective};
      for (int step = 0; step < 12; ++step) {
        // One-to-one moves to unused sites: the single-coordinate repair path.
        const std::size_t u = static_cast<std::size_t>(rng.below(n));
        const std::size_t w = random_unused_site(placement, m.size(), rng);
        eval.apply_move(u, w);
        placement.site_of[u] = w;
        const DeltaEvaluator fresh{m, *test_case.system, placement, *objective};
        EXPECT_EQ(eval.objective(), fresh.objective())
            << test_case.label << " step " << step << " objective bitwise";
        // Candidate answers from repaired tables match the fresh ones too.
        const std::size_t cu = static_cast<std::size_t>(rng.below(n));
        const std::size_t cw = random_unused_site(placement, m.size(), rng);
        EXPECT_EQ(eval.objective_if_moved(cu, cw), fresh.objective_if_moved(cu, cw))
            << test_case.label << " step " << step << " candidate bitwise";
      }
    }
  }
}

TEST(DeltaEval, EnumeratedShapeMatchesNaiveOnTreeH4) {
  // Tree(h=4), the largest built-in table (65535 quorums), on the Enumerated
  // shape: per-quorum maxima, repaired through the incidence lists. The
  // naive expected-max reference is costly on this tree, so the sizes stay
  // minimal.
  const quorum::TreeQuorum tree{4};
  const std::size_t n = tree.universe_size();
  const LatencyMatrix m = net::small_synth(n + 2, 331);
  const LoadAwareObjective load_aware{9.0};
  for (const Objective* objective :
       {&network_delay_objective(), static_cast<const Objective*>(&load_aware)}) {
    common::Rng rng{41};
    Placement placement = random_one_to_one(m, n, rng);
    std::vector<bool> used(m.size(), false);
    for (std::size_t site : placement.site_of) used[site] = true;
    std::vector<std::size_t> free_sites;
    for (std::size_t w = 0; w < m.size(); ++w) {
      if (!used[w]) free_sites.push_back(w);
    }
    ASSERT_EQ(free_sites.size(), 2u);
    DeltaEvaluator eval{m, tree, placement, *objective};
    const double naive = objective->evaluate(m, tree, placement);
    EXPECT_NEAR(eval.objective(), naive, 1e-9 * std::max(1.0, naive)) << objective->name();

    const std::size_t candidates[2][2] = {{0, free_sites[0]}, {n - 1, free_sites[1]}};
    for (const auto& move : candidates) {
      Placement moved = placement;
      moved.site_of[move[0]] = move[1];
      const double expected = objective->evaluate(m, tree, moved);
      EXPECT_NEAR(eval.objective_if_moved(move[0], move[1]), expected,
                  1e-9 * std::max(1.0, expected))
          << objective->name() << " move " << move[0] << "->" << move[1];
    }

    for (int step = 0; step < 2; ++step) {
      const std::size_t u = static_cast<std::size_t>(rng.below(n));
      const std::size_t w = free_sites[static_cast<std::size_t>(step)];
      free_sites[static_cast<std::size_t>(step)] = placement.site_of[u];
      eval.apply_move(u, w);
      placement.site_of[u] = w;
      const DeltaEvaluator fresh{m, tree, placement, *objective};
      EXPECT_EQ(eval.objective(), fresh.objective())
          << objective->name() << " step " << step << " objective bitwise";
    }
  }
}

/// One batched scan of `element` over `sites` per space, checked three ways:
/// bitwise against one-site calls, within 1e-12 relative of a fresh
/// Objective::evaluate of each moved placement (on the dense space), and
/// bitwise between the embedding and its densify().
void expect_batch_parity(const net::LatencyEmbedding& embedding, const LatencyMatrix& dense,
                         const quorum::QuorumSystem& system, const Placement& placement,
                         const Objective& objective, std::size_t element,
                         const std::vector<std::size_t>& sites, const std::string& label) {
  const DeltaEvaluator on_dense{dense, system, placement, objective};
  const DeltaEvaluator on_embedding{embedding, system, placement, objective};
  std::vector<double> batch(sites.size());
  std::vector<double> batch_embedding(sites.size());
  on_dense.objectives_if_moved({&element, 1}, sites, batch.data());
  on_embedding.objectives_if_moved({&element, 1}, sites, batch_embedding.data());
  for (std::size_t i = 0; i < sites.size(); ++i) {
    const std::string where = label + " move " + std::to_string(element) + "->" +
                              std::to_string(sites[i]);
    EXPECT_EQ(batch[i], on_dense.objective_if_moved(element, sites[i])) << where;
    EXPECT_EQ(batch_embedding[i], batch[i]) << where << " (embedding vs densify)";
    Placement moved = placement;
    moved.site_of[element] = sites[i];
    const double expected = objective.evaluate(dense, system, moved);
    EXPECT_NEAR(batch[i], expected, 1e-12 * std::max(1.0, std::abs(expected))) << where;
  }
}

TEST(DeltaEval, BatchedScanMatchesSingleCandidates) {
  // Each batch is an element's own site plus every unused site; every shape,
  // objective kind and space kind.
  // 34 sites: Tree of height 4 needs 31 distinct ones.
  sim::ScenarioConfig config;
  config.site_count = 34;
  const sim::SparseScenario scenario = sim::make_sparse_scenario(config);
  const net::LatencyEmbedding& embedding = scenario.space;
  const LatencyMatrix dense = densify(embedding);
  const std::span<const double> demand = scenario.client_demand;
  const NetworkDelayObjective uniform;
  const NetworkDelayObjective weighted{demand};
  const LoadAwareObjective load_aware{7.0};
  const LoadAwareObjective load_aware_weighted{7.0, demand};
  const ClosestStrategyObjective closest_weighted{7.0, demand};
  const std::vector<const Objective*> objectives{&uniform, &weighted, &load_aware,
                                                 &load_aware_weighted, &closest_weighted};

  const auto start = [&](std::size_t n, std::uint64_t seed) {
    common::Rng rng{seed};
    return random_one_to_one(dense, n, rng);
  };
  const auto targets = [&](const Placement& placement, std::size_t element) {
    std::vector<std::size_t> sites;
    for (std::size_t w = 0; w < dense.size(); ++w) {
      if (!hosts_other(placement, element, w)) sites.push_back(w);
    }
    return sites;
  };

  std::vector<SystemCase> systems;
  systems.push_back({"majority", std::make_unique<quorum::MajorityQuorum>(9, 5)});
  systems.push_back({"grid", std::make_unique<quorum::GridQuorum>(3)});
  systems.push_back({"fpp", std::make_unique<quorum::FppQuorum>(2)});
  systems.push_back({"tree2", std::make_unique<quorum::TreeQuorum>(2)});
  systems.push_back({"tree3", std::make_unique<quorum::TreeQuorum>(3)});
  for (const SystemCase& test_case : systems) {
    const std::size_t n = test_case.system->universe_size();
    const Placement placement = start(n, 59);
    for (const Objective* objective : objectives) {
      for (std::size_t element : {std::size_t{0}, std::size_t{1}, n / 2, n - 1}) {
        expect_batch_parity(embedding, dense, *test_case.system, placement, *objective,
                            element, targets(placement, element),
                            test_case.label + " " + objective->name());
      }
    }
  }

  // Enumerated at its largest (Tree of height 4, 31 elements, 65535
  // quorums): the naive expected-max reference is costly, so the batch is the
  // element's own site and one free site.
  const quorum::TreeQuorum tree{4};
  const std::size_t n = tree.universe_size();
  const Placement placement = start(n, 61);
  std::vector<bool> used(dense.size(), false);
  for (std::size_t site : placement.site_of) used[site] = true;
  std::vector<std::size_t> sites{placement.site_of[1]};
  for (std::size_t w = 0; w < dense.size() && sites.size() < 2; ++w) {
    if (!used[w]) sites.push_back(w);
  }
  ASSERT_EQ(sites.size(), 2u);
  expect_batch_parity(embedding, dense, tree, placement, load_aware_weighted, 1, sites,
                      "tree4 " + load_aware_weighted.name());
}

TEST(DeltaEval, BlockScanMatchesOneElementScans) {
  // A block of elements scored against one shared target list in one pass
  // over the clients: every score is bitwise the one-site call's, for blocks
  // of 1, 2, 7 and 49 elements and target lists of length 0, 1 and odd, on
  // every shape, both strategies and both space kinds.
  sim::ScenarioConfig config;
  config.site_count = 61;
  const sim::SparseScenario scenario = sim::make_sparse_scenario(config);
  const net::LatencyEmbedding& embedding = scenario.space;
  const LatencyMatrix dense = densify(embedding);
  const std::span<const double> demand = scenario.client_demand;
  const LoadAwareObjective load_aware{7.0, demand};
  const ClosestStrategyObjective closest{7.0, demand};
  const std::vector<const Objective*> objectives{&network_delay_objective(), &load_aware,
                                                 &closest};
  std::vector<SystemCase> systems;
  systems.push_back({"grid7", std::make_unique<quorum::GridQuorum>(7)});
  systems.push_back({"majority49", std::make_unique<quorum::MajorityQuorum>(49, 25)});
  systems.push_back({"fpp3", std::make_unique<quorum::FppQuorum>(3)});
  systems.push_back({"tree2", std::make_unique<quorum::TreeQuorum>(2)});
  for (const SystemCase& test_case : systems) {
    const std::size_t n = test_case.system->universe_size();
    common::Rng rng{67};
    const Placement placement = random_one_to_one(dense, n, rng);
    std::vector<bool> used(dense.size(), false);
    for (std::size_t site : placement.site_of) used[site] = true;
    std::vector<std::size_t> free_sites;
    for (std::size_t w = 0; w < dense.size(); ++w) {
      if (!used[w]) free_sites.push_back(w);
    }
    ASSERT_GE(free_sites.size(), 11u);
    const std::vector<std::vector<std::size_t>> lists{
        {}, {free_sites[5]}, {free_sites.begin(), free_sites.begin() + 11}};
    for (const Objective* objective : objectives) {
      for (const net::LatencySpace* space :
           {static_cast<const net::LatencySpace*>(&dense),
            static_cast<const net::LatencySpace*>(&embedding)}) {
        const DeltaEvaluator eval{*space, *test_case.system, placement, *objective};
        for (std::size_t block : {std::size_t{1}, std::size_t{2}, std::size_t{7}, std::size_t{49}}) {
          if (block > n) continue;
          std::vector<std::size_t> elements(block);
          for (std::size_t i = 0; i < block; ++i) elements[i] = (i * n) / block;
          for (const std::vector<std::size_t>& sites : lists) {
            std::vector<double> out(block * sites.size());
            eval.objectives_if_moved(elements, sites, out.data());
            for (std::size_t i = 0; i < block; ++i) {
              for (std::size_t j = 0; j < sites.size(); ++j) {
                EXPECT_EQ(out[i * sites.size() + j],
                          eval.objective_if_moved(elements[i], sites[j]))
                    << test_case.label << " " << objective->name() << " block " << block
                    << " move " << elements[i] << "->" << sites[j]
                    << (space == &dense ? " (dense)" : " (embedding)");
              }
            }
          }
        }
      }
    }
  }
}

TEST(DeltaEval, RandomMatricesManyTrials) {
  // Random matrices: several seeds, Majority + Grid (the two analytic
  // delta paths), every legal candidate move checked against the naive
  // objective.
  for (std::uint64_t seed : {401u, 402u, 403u}) {
    const LatencyMatrix m = net::small_synth(15, seed);
    common::Rng rng{seed};
    const quorum::MajorityQuorum majority{7, 4};
    const quorum::GridQuorum grid{2};
    for (const quorum::QuorumSystem* system :
         {static_cast<const quorum::QuorumSystem*>(&majority),
          static_cast<const quorum::QuorumSystem*>(&grid)}) {
      const std::size_t n = system->universe_size();
      const Placement placement = random_one_to_one(m, n, rng);
      const DeltaEvaluator eval{m, *system, placement};
      for (std::size_t u = 0; u < n; ++u) {
        for (std::size_t w = 0; w < m.size(); ++w) {
          if (hosts_other(placement, u, w)) continue;
          const double naive = naive_objective_if_moved(m, *system, placement, u, w);
          EXPECT_NEAR(eval.objective_if_moved(u, w), naive, 1e-9 * std::max(1.0, naive))
              << system->name() << " seed " << seed;
        }
      }
    }
  }
}

TEST(DeltaEval, WorkspaceEvaluationMatchesPublicEntryPoint) {
  for (const SystemCase& test_case : all_systems()) {
    const std::size_t n = test_case.system->universe_size();
    const LatencyMatrix m = net::small_synth(n + 6, 503);
    common::Rng rng{31};
    const Placement placement = random_one_to_one(m, n, rng);
    EvalWorkspace workspace;
    const double ws =
        network_delay_objective().evaluate_ws(m, *test_case.system, placement, workspace);
    const double naive = network_delay_objective().evaluate(m, *test_case.system, placement);
    EXPECT_DOUBLE_EQ(ws, naive) << test_case.label;
  }
}

TEST(DeltaEvalLocalSearch, DeltaEngineMatchesNaiveEngine) {
  for (const SystemCase& test_case : all_systems()) {
    const std::size_t n = test_case.system->universe_size();
    const LatencyMatrix m = net::small_synth(n + 9, 601);
    common::Rng rng{43};
    const Placement initial = random_one_to_one(m, n, rng);

    const test_support::FullReevaluation full{network_delay_objective()};
    LocalSearchOptions naive_options;
    naive_options.objective = &full;
    const LocalSearchResult naive =
        local_search_placement(m, *test_case.system, initial, naive_options);

    LocalSearchOptions delta_options;
    delta_options.threads = 1;
    const LocalSearchResult delta =
        local_search_placement(m, *test_case.system, initial, delta_options);

    EXPECT_EQ(delta.placement.site_of, naive.placement.site_of) << test_case.label;
    EXPECT_EQ(delta.moves, naive.moves) << test_case.label;
    EXPECT_NEAR(delta.objective, naive.objective, 1e-9 * std::max(1.0, naive.objective))
        << test_case.label;
  }
}

TEST(DeltaEvalLocalSearch, ParallelScanReturnsSameMovesAsSerial) {
  // The determinism guarantee: any thread count yields the identical move
  // sequence and bit-identical objective — on the dense scan (the pool
  // scores blocks of elements against one shared list), on a target list
  // shorter than the task count, and on per-element k-NN target lists.
  const quorum::GridQuorum grid{3};
  const LoadAwareObjective load_aware{7.0};
  struct Case {
    const char* label;
    std::size_t sites;
    std::size_t knn;
  };
  for (const Case& c : {Case{"dense", 24, 0}, Case{"short-list", 12, 0}, Case{"knn", 24, 4}}) {
    const LatencyMatrix m = net::small_synth(c.sites, 701);
    common::Rng rng{53};
    const Placement initial = random_one_to_one(m, grid.universe_size(), rng);
    for (const Objective* objective :
         {&network_delay_objective(), static_cast<const Objective*>(&load_aware)}) {
      LocalSearchOptions serial;
      serial.threads = 1;
      serial.objective = objective;
      serial.candidate_knn = c.knn;
      const LocalSearchResult reference = local_search_placement(m, grid, initial, serial);
      for (std::size_t threads : {std::size_t{0}, std::size_t{2}, std::size_t{3}, std::size_t{7}}) {
        LocalSearchOptions parallel = serial;
        parallel.threads = threads;
        const LocalSearchResult result = local_search_placement(m, grid, initial, parallel);
        const std::string where =
            std::string{c.label} + " " + objective->name() + " threads=" + std::to_string(threads);
        EXPECT_EQ(result.placement.site_of, reference.placement.site_of) << where;
        EXPECT_EQ(result.moves, reference.moves) << where;
        EXPECT_EQ(result.objective, reference.objective) << where;
      }
    }
  }
}

TEST(DeltaEvalLocalSearch, Plan161ShapeMatchesReferenceSearch) {
  // The benchmark's plan shape: 161 sites, demand-weighted load-aware
  // objective, Grid 7x7 started at the least central site. The search scores
  // every element against chunks of the shared target list on any thread
  // count; the reference scores one candidate per call. Moves, placement
  // and objective bits must agree.
  sim::ScenarioConfig config;
  config.site_count = 161;
  const sim::Scenario scenario = sim::make_scenario(config);
  const LatencyMatrix& m = scenario.matrix;
  const LoadAwareObjective objective = scenario.load_objective();
  const quorum::GridQuorum grid{7};
  std::size_t anchor = 0;
  for (std::size_t v = 1; v < m.size(); ++v) {
    if (net::average_rtt_from(m, v) > net::average_rtt_from(m, anchor)) anchor = v;
  }
  const Placement start = grid_placement_for_client(m, 7, anchor);
  constexpr std::size_t kRounds = 5;
  const LocalSearchResult reference =
      test_support::reference_local_search(m, grid, start, objective, kRounds);
  ASSERT_EQ(reference.moves, kRounds);
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    LocalSearchOptions options;
    options.max_rounds = kRounds;
    options.objective = &objective;
    options.threads = threads;
    const LocalSearchResult result = local_search_placement(m, grid, start, options);
    EXPECT_EQ(result.moves, reference.moves) << "threads=" << threads;
    EXPECT_EQ(result.placement.site_of, reference.placement.site_of) << "threads=" << threads;
    EXPECT_EQ(result.objective, reference.objective) << "threads=" << threads;
  }
}

TEST(DeltaEvalLocalSearch, ParallelBestPlacementMatchesSerialReference) {
  const LatencyMatrix m = net::small_synth(20, 809);
  const quorum::MajorityQuorum majority{5, 3};
  // Hand-rolled serial scan with the historical tie-breaking.
  PlacementSearchResult expected;
  expected.avg_network_delay = std::numeric_limits<double>::infinity();
  for (std::size_t v0 = 0; v0 < m.size(); ++v0) {
    Placement placement = majority_ball_placement(m, majority.universe_size(), v0);
    const double delay = network_delay_objective().evaluate(m, majority, placement);
    if (delay < expected.avg_network_delay) {
      expected.avg_network_delay = delay;
      expected.anchor_client = v0;
      expected.placement = std::move(placement);
    }
  }
  const PlacementSearchResult actual = best_majority_placement(m, majority);
  EXPECT_EQ(actual.anchor_client, expected.anchor_client);
  EXPECT_EQ(actual.placement.site_of, expected.placement.site_of);
  EXPECT_EQ(actual.avg_network_delay, expected.avg_network_delay);
}

TEST(DeltaEval, RejectsMismatchedPlacement) {
  const LatencyMatrix m = net::small_synth(10, 907);
  const quorum::GridQuorum grid{2};
  const Placement wrong_size{{0, 1, 2}};  // Grid(2x2) needs 4 elements.
  EXPECT_THROW((DeltaEvaluator{m, grid, wrong_size}), std::invalid_argument);
}

TEST(DeltaEval, ApplyMoveRejectsOutOfRange) {
  const LatencyMatrix m = net::small_synth(10, 911);
  const quorum::GridQuorum grid{2};
  common::Rng rng{3};
  DeltaEvaluator eval{m, grid, random_one_to_one(m, 4, rng)};
  EXPECT_THROW(eval.apply_move(99, 0), std::out_of_range);
  EXPECT_THROW(eval.apply_move(0, 99), std::out_of_range);
}

/// A custom system no table shape serves: not Majority or Grid, no order-
/// statistic weights, and too many quorums to enumerate. Its closed forms
/// treat the whole universe as the one quorum that matters.
class UnenumerableStub final : public quorum::QuorumSystem {
 public:
  [[nodiscard]] std::size_t universe_size() const noexcept override { return 4; }
  [[nodiscard]] std::string name() const override { return "unenumerable-stub"; }
  [[nodiscard]] double quorum_count() const noexcept override { return 1e9; }
  [[nodiscard]] quorum::Quorum best_quorum(std::span<const double> values) const override {
    quorum::check_values_size(*this, values);
    return {0, 1, 2, 3};
  }
  [[nodiscard]] double expected_max_uniform(std::span<const double> values) const override {
    quorum::check_values_size(*this, values);
    return *std::max_element(values.begin(), values.end());
  }
  [[nodiscard]] std::vector<double> uniform_load() const override {
    return std::vector<double>(4, 1.0);
  }
  [[nodiscard]] double optimal_load() const override { return 1.0; }

 protected:
  void generate_quorums(quorum::QuorumTable&) const override {
    throw std::logic_error{"unenumerable-stub: never enumerated"};
  }
};

TEST(DeltaEval, RejectsColocatedPlacement) {
  // The evaluator models the one-to-one search only: a placement with two
  // elements on one site is refused for every strategy and shape.
  const LatencyMatrix m = net::small_synth(12, 913);
  const LoadAwareObjective load_aware{7.0};
  const ClosestStrategyObjective closest{7.0};
  const Placement colocated{{0, 1, 2, 3, 4, 5, 6, 7, 0}};  // Elements 0 and 8 share site 0.
  const quorum::MajorityQuorum majority{9, 5};
  const quorum::GridQuorum grid{3};
  const quorum::FppQuorum fpp{2};
  const quorum::TreeQuorum tree{2};
  for (const Objective* objective :
       {&network_delay_objective(), static_cast<const Objective*>(&load_aware),
        static_cast<const Objective*>(&closest)}) {
    EXPECT_THROW((DeltaEvaluator{m, majority, colocated, *objective}), std::invalid_argument)
        << objective->name();
    EXPECT_THROW((DeltaEvaluator{m, grid, colocated, *objective}), std::invalid_argument)
        << objective->name();
    const Placement fpp_colocated{{0, 1, 2, 3, 4, 5, 0}};
    EXPECT_THROW((DeltaEvaluator{m, fpp, fpp_colocated, *objective}), std::invalid_argument)
        << objective->name();
    EXPECT_THROW((DeltaEvaluator{m, tree, fpp_colocated, *objective}), std::invalid_argument)
        << objective->name();
  }
}

TEST(DeltaEval, ApplyMoveRejectsOccupiedSite) {
  // A move onto another element's site would colocate the two: refused,
  // and the evaluator keeps its placement and objective.
  const LatencyMatrix m = net::small_synth(14, 917);
  const LoadAwareObjective load_aware{7.0};
  const ClosestStrategyObjective closest{7.0};
  const quorum::GridQuorum grid{3};
  common::Rng rng{5};
  const Placement placement = random_one_to_one(m, grid.universe_size(), rng);
  for (const Objective* objective :
       {&network_delay_objective(), static_cast<const Objective*>(&load_aware),
        static_cast<const Objective*>(&closest)}) {
    DeltaEvaluator eval{m, grid, placement, *objective};
    const double before = eval.objective();
    EXPECT_THROW(eval.apply_move(0, placement.site_of[1]), std::invalid_argument)
        << objective->name();
    EXPECT_EQ(eval.placement().site_of, placement.site_of) << objective->name();
    EXPECT_EQ(eval.objective(), before) << objective->name();
    // The no-op move to the element's own site stays legal.
    eval.apply_move(0, placement.site_of[0]);
    EXPECT_EQ(eval.objective(), before) << objective->name();
  }
}

TEST(DeltaEval, RejectsBalancedObjectiveOnNonEnumerableSystem) {
  // Balanced candidates are answered from Sorted, Grid or Enumerated tables
  // only; a system with none of those shapes is refused. The closest
  // strategy still serves it through best_quorum.
  const LatencyMatrix m = net::small_synth(10, 919);
  const UnenumerableStub stub;
  const Placement placement{{0, 1, 2, 3}};
  const LoadAwareObjective load_aware{7.0};
  EXPECT_THROW((DeltaEvaluator{m, stub, placement}), std::invalid_argument);
  EXPECT_THROW((DeltaEvaluator{m, stub, placement, load_aware}), std::invalid_argument);
  const ClosestStrategyObjective closest{7.0};
  const DeltaEvaluator eval{m, stub, placement, closest};
  const double naive = closest.evaluate(m, stub, placement);
  EXPECT_NEAR(eval.objective(), naive, 1e-9 * std::max(1.0, naive));
}

}  // namespace
}  // namespace qp::core
