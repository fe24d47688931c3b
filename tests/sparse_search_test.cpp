// Parity suites for the sparse candidate-search stack: the kd-tree KnnIndex
// against the brute-force reference, the ClientCandidateIndex sparse
// evaluation against the dense full scan (a cap covering every site makes
// it exact, including after move sequences, where the evaluator repairs its
// charge lists incrementally), and — the acceptance pin — the local search
// reproducing the dense exhaustive scan's local optimum on every n <= 500
// config, plus the capped route's improving-sequence guarantees on an
// implicit space.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
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

/// Applies the first improving candidate the detached (full-scan) evaluator
/// `full` finds to both evaluators; false at a local optimum.
bool apply_first_improving(DeltaEvaluator& full, DeltaEvaluator& indexed,
                           std::size_t universe, std::size_t sites) {
  for (std::size_t u = 0; u < universe; ++u) {
    for (std::size_t s = 0; s < sites; ++s) {
      if (full.placement().site_of[u] == s ||
          test_support::hosts_other(full.placement(), u, s)) {
        continue;
      }
      if (full.objective_if_moved(u, s) < full.objective() - 1e-9) {
        full.apply_move(u, s);
        indexed.apply_move(u, s);
        return true;
      }
    }
  }
  return false;
}

Placement identity_placement(const quorum::QuorumSystem& system) {
  Placement placement;
  placement.site_of.resize(system.universe_size());
  for (std::size_t u = 0; u < system.universe_size(); ++u) placement.site_of[u] = u;
  return placement;
}

TEST(ClientCandidateIndex, SparseEvaluationStaysExactAcrossMoveSequence) {
  // The exactness oracle of the indexed route: a cap >= n puts every site in
  // every client's list, so each candidate classifies every client the move
  // can flip and must match the full client scan. The index is built ONCE;
  // after each accepted move the evaluator repairs its charge lists instead
  // of rebuilding them. Pin: the repaired evaluation equals (a) the full
  // scan and (b) an evaluator freshly attached to the same index — before
  // and after every move of an improving sequence — for the Grid, Majority
  // and generic (Tree, FPP) closest engines. The Grid sequence starts from
  // the constructive grid placement and runs to a local optimum (127 moves);
  // the others start from the identity placement and stop after 8 moves.
  const sim::Scenario scenario = sim::daxlist161_scenario();
  const ClosestStrategyObjective objective = scenario.closest_objective();
  const net::KnnIndex knn{scenario.matrix};
  const ClientCandidateIndex index =
      ClientCandidateIndex::build(knn, scenario.site_count() + 1);
  for (std::size_t s = 0; s < scenario.site_count(); ++s) {
    ASSERT_EQ(index.clients_of(s).size(), scenario.site_count()) << "site " << s;
  }

  const auto run = [&](const quorum::QuorumSystem& system, const char* name,
                       const Placement& placement, bool to_local_optimum) {
    SCOPED_TRACE(name);
    DeltaEvaluator dense{scenario.matrix, system, placement, objective};
    DeltaEvaluator indexed{scenario.matrix, system, placement, objective};
    indexed.attach_candidate_index(&index);
    expect_candidate_parity(indexed, dense, system.universe_size(), scenario.site_count(),
                            "before any move");

    std::size_t moves = 0;
    bool converged = false;
    for (; to_local_optimum || moves < 8; ++moves) {
      if (!apply_first_improving(dense, indexed, system.universe_size(),
                                 scenario.site_count())) {
        converged = true;
        break;
      }
      EXPECT_NEAR(indexed.objective(), dense.objective(), 1e-9 * (1.0 + dense.objective()))
          << "after move " << moves;
      expect_candidate_parity(indexed, dense, system.universe_size(), scenario.site_count(),
                              "repaired index after moves");

      DeltaEvaluator fresh{scenario.matrix, system, dense.placement(), objective};
      fresh.attach_candidate_index(&index);
      expect_candidate_parity(indexed, fresh, system.universe_size(), scenario.site_count(),
                              "freshly attached after moves");
    }
    EXPECT_GT(moves, 0u) << "the initial placement was already locally optimal";
    if (to_local_optimum) {
      EXPECT_TRUE(converged);
    }
  };

  const quorum::GridQuorum grid{7};
  run(grid, "Grid(7x7)", best_grid_placement(scenario.matrix, 7).placement, true);
  const quorum::MajorityQuorum majority{49, 25};
  run(majority, "Majority(25/49)", identity_placement(majority), false);
  const quorum::TreeQuorum tree{3};
  run(tree, "Tree(h=3)", identity_placement(tree), false);
  const quorum::FppQuorum fpp{3};
  run(fpp, "FPP(q=3)", identity_placement(fpp), false);
}

TEST(ClientCandidateIndex, RejectsZeroCap) {
  const sim::Scenario scenario = sim::daxlist161_scenario();
  const net::KnnIndex knn{scenario.matrix};
  EXPECT_THROW((void)ClientCandidateIndex::build(knn, 0), std::invalid_argument);
}

TEST(ClientCandidateIndex, DirtyReaccumulationMatchesFullBitwise) {
  // apply_move with charge lists maintained re-sums only the sites whose
  // charging multiset changed and reprices only the dirty clients; the pin
  // is BITWISE equality with the detached evaluator's full O(clients x |Q|)
  // reaccumulation after every accepted move, for the Grid, Majority and
  // generic (Tree, FPP) closest engines (the scenario's alpha > 0 arms the
  // load terms). The index is the production cap of 64 sites: the repair
  // does not depend on the lists' contents.
  const sim::Scenario scenario = sim::daxlist161_scenario();
  const ClosestStrategyObjective objective = scenario.closest_objective();
  const net::KnnIndex knn{scenario.matrix};
  const ClientCandidateIndex index = ClientCandidateIndex::build(knn, 64);

  const auto run = [&](const quorum::QuorumSystem& system, const char* name) {
    const Placement placement = identity_placement(system);
    DeltaEvaluator full{scenario.matrix, system, placement, objective};
    DeltaEvaluator dirty{scenario.matrix, system, placement, objective};
    dirty.attach_candidate_index(&index);

    std::size_t moves = 0;
    for (; moves < 12; ++moves) {
      if (!apply_first_improving(full, dirty, system.universe_size(),
                                 scenario.site_count())) {
        break;
      }
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

// --------------------------------- Search driver vs reference-loop parity

/// The acceptance pin: on a dense matrix with candidate_knn == 0 the
/// search's full client scan must reproduce the reference exhaustive
/// scan's decisions exactly — same moves, same final placement. Both sides
/// score candidates with the same full client scan, so this pins the search
/// driver, not the client index (the exactness oracle above covers that).
/// Both runs recompute the final objective from the matrix, so equal
/// placements give equal doubles.
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
