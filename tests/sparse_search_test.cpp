// Parity suites for the sparse candidate-search stack: the kd-tree KnnIndex
// against the brute-force reference, the ClientCandidateIndex sparse
// evaluation against the dense full scan (including after move sequences,
// where the evaluator repairs its charge/overflow state incrementally), and
// — the acceptance pin — sparse local search reproducing the dense
// exhaustive scan's local optimum on every n <= 500 config.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/client_index.hpp"
#include "core/delta_eval.hpp"
#include "core/failure_objective.hpp"
#include "core/local_search.hpp"
#include "core/objective.hpp"
#include "core/placement.hpp"
#include "net/knn_index.hpp"
#include "net/synthetic.hpp"
#include "quorum/fpp.hpp"
#include "quorum/grid.hpp"
#include "quorum/majority.hpp"
#include "quorum/tree.hpp"
#include "sim/scenario.hpp"
#include "support/move_targets.hpp"
#include "support/net_oracles.hpp"
#include "support/reference_search.hpp"

namespace qp::core {
namespace {

using qp::net::test_support::densify;

// ------------------------------------------------------------- KnnIndex

TEST(KnnIndex, TreeMatchesBruteForceOnDensifiedEmbedding) {
  // The kd-tree over the embedding and the brute-force scan over its
  // densified matrix must return identical neighbors (site AND rtt bitwise,
  // densify() preserves doubles) for every query site and several k.
  sim::ScenarioConfig config;
  config.site_count = 300;
  const sim::SparseScenario scenario = sim::make_sparse_scenario(config);
  const net::LatencyMatrix dense = densify(scenario.space);
  const net::KnnIndex tree{scenario.space};
  const net::KnnIndex brute{dense};
  ASSERT_EQ(tree.size(), brute.size());
  for (std::size_t from = 0; from < tree.size(); from += 7) {
    for (const std::size_t k : {std::size_t{1}, std::size_t{8}, std::size_t{64},
                                tree.size() + 5}) {
      const auto a = tree.nearest(from, k);
      const auto b = brute.nearest(from, k);
      ASSERT_EQ(a.size(), b.size()) << "from=" << from << " k=" << k;
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].site, b[i].site) << "from=" << from << " k=" << k << " i=" << i;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].rtt_ms),
                  std::bit_cast<std::uint64_t>(b[i].rtt_ms));
      }
    }
  }
}

TEST(KnnIndex, WithinMatchesBruteForce) {
  sim::ScenarioConfig config;
  config.site_count = 200;
  const sim::SparseScenario scenario = sim::make_sparse_scenario(config);
  const net::LatencyMatrix dense = densify(scenario.space);
  const net::KnnIndex tree{scenario.space};
  const net::KnnIndex brute{dense};
  std::vector<net::KnnIndex::Neighbor> a, b;
  for (std::size_t from = 0; from < tree.size(); from += 11) {
    for (const double radius : {0.0, 20.0, 80.0, 1e9}) {
      tree.within(from, radius, a);
      brute.within(from, radius, b);
      ASSERT_EQ(a.size(), b.size()) << "from=" << from << " r=" << radius;
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].site, b[i].site);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].rtt_ms),
                  std::bit_cast<std::uint64_t>(b[i].rtt_ms));
      }
    }
  }
}

// ------------------------------------------- ClientCandidateIndex parity

/// Indexed evaluator vs dense evaluator, candidate-by-candidate, over a
/// sample of the legal (own or unused) targets.
void expect_candidate_parity(const DeltaEvaluator& indexed, const DeltaEvaluator& dense,
                             std::size_t universe, std::size_t sites,
                             const char* where) {
  for (std::size_t u = 0; u < universe; u += 3) {
    for (std::size_t s = 0; s < sites; s += 5) {
      if (test_support::hosts_other(dense.placement(), u, s)) continue;
      EXPECT_NEAR(indexed.objective_if_moved(u, s), dense.objective_if_moved(u, s),
                  1e-9 * (1.0 + dense.objective_if_moved(u, s)))
          << where << ": candidate (" << u << " -> " << s << ")";
    }
  }
}

TEST(ClientCandidateIndex, SparseEvaluationStaysExactAcrossMoveSequence) {
  // The uncapped index is built ONCE from the initial m1 radii; after each
  // accepted move the evaluator repairs its charge index and coverage
  // overflow set instead of rebuilding. Pin: the stale-index-plus-repair
  // evaluation equals (a) the dense full scan and (b) an evaluator with an
  // index freshly rebuilt from the current radii — after every move of an
  // improving sequence.
  const sim::Scenario scenario = sim::daxlist161_scenario();
  const quorum::GridQuorum grid{7};
  const ClosestStrategyObjective objective = scenario.closest_objective();
  Placement placement;
  placement.site_of.resize(grid.universe_size());
  for (std::size_t u = 0; u < grid.universe_size(); ++u) placement.site_of[u] = u;

  const net::KnnIndex knn{scenario.matrix};
  DeltaEvaluator dense{scenario.matrix, grid, placement, objective};
  DeltaEvaluator indexed{scenario.matrix, grid, placement, objective};
  const ClientCandidateIndex index = ClientCandidateIndex::build(
      scenario.matrix, &knn, indexed.best_values(), {});
  indexed.attach_candidate_index(&index);

  expect_candidate_parity(indexed, dense, grid.universe_size(), scenario.site_count(),
                          "before any move");

  // A deterministic improving move sequence: repeatedly take the first
  // improving candidate the dense evaluator finds.
  std::size_t moves = 0;
  for (; moves < 8; ++moves) {
    bool accepted = false;
    for (std::size_t u = 0; u < grid.universe_size() && !accepted; ++u) {
      for (std::size_t s = 0; s < scenario.site_count() && !accepted; ++s) {
        if (dense.placement().site_of[u] == s ||
            test_support::hosts_other(dense.placement(), u, s)) {
          continue;
        }
        if (dense.objective_if_moved(u, s) < dense.objective() - 1e-9) {
          dense.apply_move(u, s);
          indexed.apply_move(u, s);
          accepted = true;
        }
      }
    }
    if (!accepted) break;

    EXPECT_NEAR(indexed.objective(), dense.objective(), 1e-9 * (1.0 + dense.objective()))
        << "after move " << moves;
    expect_candidate_parity(indexed, dense, grid.universe_size(), scenario.site_count(),
                            "stale index after moves");

    // Fresh rebuild from the *current* radii must agree with the repaired
    // stale-index path too.
    DeltaEvaluator fresh{scenario.matrix, grid, dense.placement(), objective};
    const ClientCandidateIndex rebuilt = ClientCandidateIndex::build(
        scenario.matrix, &knn, fresh.best_values(), {});
    fresh.attach_candidate_index(&rebuilt);
    expect_candidate_parity(indexed, fresh, grid.universe_size(), scenario.site_count(),
                            "fresh rebuild after moves");
  }
  EXPECT_GT(moves, 0u) << "the initial placement was already locally optimal";
}

TEST(ClientCandidateIndex, DirtyReaccumulationMatchesFullBitwise) {
  // apply_move with charge lists maintained re-sums only the sites whose
  // charging multiset changed and reprices only the dirty clients; the pin
  // is BITWISE equality with the detached evaluator's full O(clients x |Q|)
  // reaccumulation after every accepted move, for the Grid, Majority and
  // enumerated (Tree, FPP) closest engines (the scenario's alpha > 0 arms
  // the load terms).
  const sim::Scenario scenario = sim::daxlist161_scenario();
  const ClosestStrategyObjective objective = scenario.closest_objective();
  const net::KnnIndex knn{scenario.matrix};

  const auto run = [&](const quorum::QuorumSystem& system, const char* name) {
    Placement placement;
    placement.site_of.resize(system.universe_size());
    for (std::size_t u = 0; u < system.universe_size(); ++u) placement.site_of[u] = u;

    DeltaEvaluator full{scenario.matrix, system, placement, objective};
    DeltaEvaluator dirty{scenario.matrix, system, placement, objective};
    const ClientCandidateIndex index =
        ClientCandidateIndex::build(scenario.matrix, &knn, dirty.best_values(), {});
    dirty.attach_candidate_index(&index);

    std::size_t moves = 0;
    for (; moves < 12; ++moves) {
      bool accepted = false;
      for (std::size_t u = 0; u < system.universe_size() && !accepted; ++u) {
        for (std::size_t s = 0; s < scenario.site_count() && !accepted; ++s) {
          if (full.placement().site_of[u] == s ||
              test_support::hosts_other(full.placement(), u, s)) {
            continue;
          }
          if (full.objective_if_moved(u, s) < full.objective() - 1e-9) {
            full.apply_move(u, s);
            dirty.apply_move(u, s);
            accepted = true;
          }
        }
      }
      if (!accepted) break;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(dirty.objective()),
                std::bit_cast<std::uint64_t>(full.objective()))
          << name << ": objective diverged after move " << moves;
    }
    EXPECT_GT(moves, 0u) << name << ": vacuous pin, nothing moved";
  };

  run(quorum::GridQuorum{7}, "Grid(7x7)");
  run(quorum::MajorityQuorum{49, 25}, "Majority(25/49)");
  run(quorum::TreeQuorum{3}, "Tree(h=3)");
  run(quorum::FppQuorum{3}, "FPP(q=3)");
}

// ------------------------------------- Sparse vs dense local-search parity

/// The acceptance pin: on a dense matrix with candidate_knn == 0 the
/// search's uncapped client index must reproduce the dense exhaustive
/// scan's decisions exactly — same moves, same final placement. Both runs
/// recompute the final objective from the matrix, so equal placements give
/// equal doubles.
void expect_search_parity(const sim::Scenario& scenario, std::size_t max_rounds,
                          std::size_t grid_side = 7) {
  const quorum::GridQuorum grid{grid_side};
  const ClosestStrategyObjective objective = scenario.closest_objective();
  Placement initial;
  initial.site_of.resize(grid.universe_size());
  const std::size_t stride =
      std::max<std::size_t>(1, scenario.site_count() / grid.universe_size());
  for (std::size_t u = 0; u < grid.universe_size(); ++u) {
    initial.site_of[u] = u * stride;
  }

  const LocalSearchResult dense = test_support::reference_local_search(
      scenario.matrix, grid, initial, objective, max_rounds);

  LocalSearchOptions sparse_options;
  sparse_options.objective = &objective;
  sparse_options.max_rounds = max_rounds;
  sparse_options.threads = 1;
  const LocalSearchResult sparse =
      local_search_placement(scenario.matrix, grid, initial, sparse_options);

  EXPECT_GT(dense.moves, 0u) << scenario.name << ": vacuous parity, nothing moved";
  EXPECT_EQ(sparse.moves, dense.moves) << scenario.name;
  ASSERT_EQ(sparse.placement.site_of, dense.placement.site_of) << scenario.name;
  EXPECT_DOUBLE_EQ(sparse.objective, dense.objective) << scenario.name;
}

TEST(SparseSearchParity, N49ReproducesDenseLocalOptimum) {
  // Grid 5x5 on 49 sites: the universe must be smaller than n or there are
  // no unused sites and the neighborhood is empty.
  sim::ScenarioConfig config;
  config.name = "synthetic-49";
  config.site_count = 49;
  expect_search_parity(sim::make_scenario(config), /*max_rounds=*/100, /*grid_side=*/5);
}

TEST(SparseSearchParity, N161ReproducesDenseLocalOptimum) {
  expect_search_parity(sim::daxlist161_scenario(), /*max_rounds=*/100);
}

TEST(SparseSearchParity, N500ReproducesDenseTrajectory) {
  // Full convergence at n = 500 is a benchmark, not a unit test; a bounded
  // round budget pins the same-trajectory property at the largest config.
  expect_search_parity(sim::synthetic500_scenario(), /*max_rounds=*/4);
}

TEST(SparseSearchParity, KnnCandidateListCoveringAllSitesMatchesDense) {
  // candidate_knn >= n enumerates the same targets as the dense scan (in
  // the same ascending-site order), so the whole knn-target path must land
  // on the identical optimum.
  const sim::Scenario scenario = sim::daxlist161_scenario();
  const quorum::GridQuorum grid{7};
  const ClosestStrategyObjective objective = scenario.closest_objective();
  Placement initial;
  initial.site_of.resize(grid.universe_size());
  for (std::size_t u = 0; u < grid.universe_size(); ++u) initial.site_of[u] = u;

  const LocalSearchOptions defaults;
  const LocalSearchResult dense = test_support::reference_local_search(
      scenario.matrix, grid, initial, objective, defaults.max_rounds);

  const net::KnnIndex knn{scenario.matrix};
  LocalSearchOptions knn_options;
  knn_options.objective = &objective;
  knn_options.threads = 1;
  knn_options.candidate_knn = scenario.site_count();  // k >= n: full list.
  knn_options.knn = &knn;
  const LocalSearchResult sparse =
      local_search_placement(scenario.matrix, grid, initial, knn_options);

  EXPECT_EQ(sparse.moves, dense.moves);
  ASSERT_EQ(sparse.placement.site_of, dense.placement.site_of);
  EXPECT_DOUBLE_EQ(sparse.objective, dense.objective);
}

/// The capped-index fixture: implicit spaces always take capped client
/// lists, so a 2000-site sparse scenario with a 16-NN candidate list runs
/// the approximate-ranking path with exact applies.
struct CappedSearchCase {
  sim::SparseScenario scenario = [] {
    sim::ScenarioConfig config;
    config.site_count = 2000;
    return sim::make_sparse_scenario(config);
  }();
  net::KnnIndex knn{scenario.space};
  ClosestStrategyObjective objective = scenario.closest_objective();
  quorum::GridQuorum grid{5};
  Placement initial = [this] {
    Placement p;
    for (std::size_t u = 0; u < grid.universe_size(); ++u) {
      p.site_of.push_back(73 + 80 * u);
    }
    return p;
  }();

  LocalSearchResult search(std::size_t max_rounds) const {
    LocalSearchOptions options;
    options.objective = &objective;
    options.knn = &knn;
    options.candidate_knn = 16;
    options.threads = 1;
    options.max_rounds = max_rounds;
    return local_search_placement(scenario.space, grid, initial, options);
  }
};

TEST(SparseSearchParity, CappedIndexStillProducesImprovingSequence) {
  // Capped lists make candidate *ranking* approximate; applies stay exact,
  // so the result must still be a genuine improvement over the start.
  const CappedSearchCase c;
  const double initial_objective = c.search(0).objective;
  const LocalSearchResult result = c.search(10);
  EXPECT_GT(result.moves, 0u);
  EXPECT_LT(result.objective, initial_objective);
  result.placement.validate(c.scenario.site_count());
  // The reported objective is the canonical evaluation on the implicit space.
  EXPECT_EQ(result.objective, c.objective.evaluate(c.scenario.space, c.grid, result.placement));
}

TEST(SparseSearchParity, CappedIndexNeverAcceptsAWorseningMove) {
  // Regression: on an implicit space the client lists are capped, so the
  // ranking is approximate. From this start the first round used to accept
  // a candidate scored as improving that moved the exact objective
  // 207.2676 -> 207.2946. Every applied move is now checked against the
  // exact objective and undone unless it improves.
  const CappedSearchCase c;
  double previous = c.search(0).objective;
  for (std::size_t rounds = 1; rounds <= 3; ++rounds) {
    const LocalSearchResult result = c.search(rounds);
    EXPECT_LE(result.objective, previous) << "after " << rounds << " rounds";
    const DeltaEvaluator fresh{c.scenario.space, c.grid, result.placement, c.objective};
    EXPECT_NEAR(fresh.objective(), result.objective, 1e-9);
    previous = result.objective;
  }
}

TEST(SparseSearchParity, FailureAwareSearchOnEmbeddingMatchesDensified) {
  // Objectives without delta support take the full re-evaluation route,
  // which reads the space only through Objective::evaluate: an embedding
  // needs no dense table and must retrace the search on its densify() copy.
  sim::ScenarioConfig config;
  config.site_count = 24;
  const sim::SparseScenario scenario = sim::make_sparse_scenario(config);
  const net::LatencyMatrix dense = densify(scenario.space);
  const quorum::MajorityQuorum majority{5, 3};
  FailureModel failures;
  failures.site_failure_prob = 0.05;
  const FailureAwareObjective objective{7.0, failures, scenario.client_demand};
  const Placement initial{{0, 5, 10, 15, 20}};
  LocalSearchOptions options;
  options.objective = &objective;
  options.max_rounds = 5;
  options.threads = 1;
  const LocalSearchResult sparse =
      local_search_placement(scenario.space, majority, initial, options);
  const LocalSearchResult reference = local_search_placement(dense, majority, initial, options);
  EXPECT_GT(reference.moves, 0u) << "vacuous parity, nothing moved";
  EXPECT_EQ(sparse.moves, reference.moves);
  ASSERT_EQ(sparse.placement.site_of, reference.placement.site_of);
  EXPECT_DOUBLE_EQ(sparse.objective, reference.objective);
}

}  // namespace
}  // namespace qp::core
