// Cross-module scenarios that don't belong to a single unit: non-Grid
// systems through the LP/iterative pipeline, simulator-vs-model agreement,
// and multi-hop end-to-end runs.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "net/matrix_io.hpp"
#include "quorum/grid.hpp"

#include "core/capacity.hpp"
#include "core/eval_workspace.hpp"
#include "core/iterative.hpp"
#include "core/local_search.hpp"
#include "core/manytoone.hpp"
#include "core/objective.hpp"
#include "core/placement.hpp"
#include "core/response.hpp"
#include "core/strategy.hpp"
#include "net/embedding.hpp"
#include "net/latency_matrix.hpp"
#include "net/synthetic.hpp"
#include "quorum/fpp.hpp"
#include "quorum/majority.hpp"
#include "quorum/tree.hpp"
#include "sim/client_sites.hpp"
#include "sim/engine.hpp"
#include "sim/scenario.hpp"
#include "support/net_oracles.hpp"

namespace qp {
namespace {

using qp::net::test_support::densify;
using qp::net::test_support::satisfies_triangle_inequality;
using qp::net::test_support::write_matrix;

TEST(CrossModule, IterativeAlgorithmWorksForMajorities) {
  // §4.2's pipeline is system-agnostic as long as quorums enumerate.
  const net::LatencyMatrix m = net::small_synth(10, 91);
  const quorum::MajorityQuorum majority{5, 3};
  core::IterativeOptions options;
  options.anchor_candidates = {0, 1, 2, 3};
  const auto caps = core::uniform_capacities(m.size(), 0.9);
  const core::IterativeResult result =
      core::iterative_placement(m, majority, caps, core::network_delay_objective(), options);
  result.placement.validate(m.size());
  result.strategy.validate(m.size(), 5);
  EXPECT_GT(result.avg_response, 0.0);
}

TEST(CrossModule, ManyToOneWorksForTreeQuorums) {
  const net::LatencyMatrix m = net::small_synth(10, 93);
  const quorum::TreeQuorum tree{1};  // 3 elements, 3 quorums.
  const std::vector<double> probs(3, 1.0 / 3.0);
  const auto caps = core::uniform_capacities(m.size(), 1.0);
  const auto result = core::many_to_one_placement(m, tree, probs, caps, 2);
  ASSERT_EQ(result.status, lp::SolveStatus::Optimal);
  result.placement.validate(m.size());
}

TEST(CrossModule, StrategyLpWorksForFpp) {
  const net::LatencyMatrix m = net::small_synth(12, 95);
  const quorum::FppQuorum plane{2};  // Fano: 7 elements, 7 lines of 3.
  const core::PlacementSearchResult placed = core::best_placement(
      m, plane, [&](std::size_t v0) { return core::majority_ball_placement(m, 7, v0); });
  const auto caps = core::uniform_capacities(m.size(), 0.8);
  const auto lp = core::optimize_access_strategy(m, plane, placed.placement, caps);
  ASSERT_EQ(lp.status, lp::SolveStatus::Optimal);
  const auto loads = core::site_loads_explicit(lp.strategy, placed.placement, m.size());
  for (double load : loads) EXPECT_LE(load, 0.8 + 1e-6);
}

TEST(CrossModule, SimulatorAgreesWithAnalyticModelWhenUnloaded) {
  // At negligible load (one closed-loop client per site), the engine's mean
  // response under uniform quorum draws must match the analytic balanced
  // network delay (restricted to the client sites) plus one service time.
  const net::LatencyMatrix m = net::small_synth(14, 97);
  const quorum::MajorityQuorum system{6, 5};
  const core::Placement placement = core::best_majority_placement(m, system).placement;
  const std::vector<std::size_t> clients =
      sim::representative_client_sites(m, system, placement, 3);

  sim::EngineConfig config;
  config.closed_loop_clients = 1;
  config.duration_ms = 30'000.0;
  config.warmup_ms = 2'000.0;
  config.replications = 1;
  config.master_seed = 17;
  const auto sim_result = sim::run_engine(m, system, placement,
                                          sim::client_site_mask(m.size(), clients), config);

  double analytic = 0.0;
  for (std::size_t v : clients) {
    std::vector<double> values;
    core::fill_element_distances(m, placement, v, values);
    analytic += system.expected_max_uniform(values);
  }
  analytic /= static_cast<double>(clients.size());
  EXPECT_NEAR(sim_result.mean_response_ms, analytic + config.service_time_ms,
              0.05 * analytic + 1.0);
  EXPECT_NEAR(sim_result.mean_network_delay_ms, analytic, 0.05 * analytic + 0.5);
}

TEST(CrossModule, GraphFullPipelineWithLpStrategies) {
  // Link matrix -> metric closure -> placement -> strategy LP -> evaluation
  // on a hand-built 16-site topology: a ring with uneven links plus two
  // chords, every other pair at a large finite RTT, so the closure makes
  // many shortest paths multi-hop.
  constexpr std::size_t kSites = 16;
  std::vector<std::vector<double>> links(kSites, std::vector<double>(kSites, 1e4));
  const auto link = [&](std::size_t a, std::size_t b, double rtt) {
    links[a][b] = links[b][a] = rtt;
  };
  for (std::size_t v = 0; v < kSites; ++v) {
    links[v][v] = 0.0;
    link(v, (v + 1) % kSites, 4.0 + static_cast<double>((v * 7) % 5));
  }
  link(0, 8, 11.0);
  link(4, 12, 9.5);
  const net::LatencyMatrix m = net::LatencyMatrix{std::move(links)}.metric_closure();
  EXPECT_TRUE(satisfies_triangle_inequality(m, 1e-9));
  EXPECT_DOUBLE_EQ(m.rtt(0, 2), m.rtt(0, 1) + m.rtt(1, 2));
  const quorum::GridQuorum grid{3};
  const auto placed = core::best_grid_placement(m, 3);
  EXPECT_TRUE(placed.placement.one_to_one());
  const auto caps = core::uniform_capacities(m.size(), grid.optimal_load() * 1.5);
  const auto lp = core::optimize_access_strategy(m, grid, placed.placement, caps);
  ASSERT_EQ(lp.status, lp::SolveStatus::Optimal);
  const auto eval =
      core::evaluate_explicit(m, grid, placed.placement, 50.0, lp.strategy);
  EXPECT_GT(eval.avg_response_ms, eval.avg_network_delay_ms);
}

TEST(CrossModule, CollapsedModelThroughTheIterativePipeline) {
  // Evaluate an iterative (colocating) placement under both execution
  // models: collapsed can only help.
  const net::LatencyMatrix m = net::small_synth(12, 99);
  const quorum::GridQuorum grid{2};
  core::IterativeOptions options;
  options.anchor_candidates = {0, 1, 2, 3, 4, 5};
  const auto caps = core::uniform_capacities(m.size(), 1.0);
  const auto iterative =
      core::iterative_placement(m, grid, caps, core::network_delay_objective(), options);
  const double alpha = core::kQuWriteServiceMs * 16'000;
  const auto per_element =
      core::evaluate_explicit(m, grid, iterative.placement, alpha, iterative.strategy,
                              {}, core::ExecutionModel::PerElement);
  const auto collapsed =
      core::evaluate_explicit(m, grid, iterative.placement, alpha, iterative.strategy,
                              {}, core::ExecutionModel::Collapsed);
  EXPECT_LE(collapsed.avg_response_ms, per_element.avg_response_ms + 1e-9);
}

TEST(CrossModule, PipelineOnEmbeddingMatchesDensified) {
  // The plan -> LP -> engine pipeline runs on an implicit LatencyEmbedding
  // (no dense matrix anywhere) and reproduces the same run on the
  // embedding's densify() exactly: every stage reads RTTs through
  // net::LatencySpace, and densify() stores the embedding's doubles.
  sim::ScenarioConfig config;
  config.site_count = 24;
  const sim::SparseScenario scenario = sim::make_sparse_scenario(config);
  const net::LatencyEmbedding& sparse = scenario.space;
  ASSERT_EQ(sparse.as_matrix(), nullptr);
  const net::LatencyMatrix dense = densify(sparse);
  const quorum::GridQuorum grid{3};
  const core::LoadAwareObjective objective{20.0};

  struct Run {
    core::PlacementSearchResult start;
    core::LocalSearchResult polished;
    core::StrategyLpResult lp;
    sim::EngineResult engine;
    core::IterativeResult iterative;
    core::Placement singleton;
    std::vector<double> nonuniform;
  };
  const auto run = [&](const net::LatencySpace& space) {
    Run r;
    r.start = core::best_grid_placement(space, 3);
    // The search starts from a deliberately off-center anchor so it moves.
    core::LocalSearchOptions search;
    search.objective = &objective;
    r.polished = core::local_search_placement(
        space, grid, core::grid_placement_for_client(space, 3, space.size() - 1), search);
    // Caps at 1.1 L_opt can bind.
    const std::vector<double> caps =
        core::uniform_capacities(space.size(), 1.1 * grid.optimal_load());
    r.lp = core::optimize_access_strategy(space, grid, r.polished.placement, caps);
    if (r.lp.status != lp::SolveStatus::Optimal) return r;

    sim::EngineConfig engine;
    engine.strategy = sim::EngineStrategy::Explicit;
    engine.explicit_strategy = &r.lp.strategy;
    engine.warmup_ms = 200.0;
    engine.duration_ms = 2'000.0;
    engine.replications = 2;
    const std::vector<double> rates(space.size(), 0.002);
    r.engine = sim::run_engine(space, grid, r.polished.placement, rates, engine);

    core::IterativeOptions iterative;
    iterative.anchor_candidates = {0, 1, 2, 3};
    r.iterative = core::iterative_placement(
        space, grid, core::uniform_capacities(space.size(), 0.8), objective, iterative);
    r.singleton = core::singleton_placement(space, grid.universe_size());
    r.nonuniform = core::nonuniform_capacities(space, r.polished.placement.support_set(),
                                               grid.optimal_load(), 0.9);
    return r;
  };
  const Run on_sparse = run(sparse);
  const Run on_dense = run(dense);

  EXPECT_EQ(on_sparse.start.placement.site_of, on_dense.start.placement.site_of);
  EXPECT_EQ(on_sparse.start.anchor_client, on_dense.start.anchor_client);
  EXPECT_DOUBLE_EQ(on_sparse.start.avg_network_delay, on_dense.start.avg_network_delay);
  EXPECT_EQ(on_sparse.polished.placement.site_of, on_dense.polished.placement.site_of);
  EXPECT_GT(on_sparse.polished.moves, 0u);
  EXPECT_EQ(on_sparse.polished.moves, on_dense.polished.moves);
  EXPECT_DOUBLE_EQ(on_sparse.polished.objective, on_dense.polished.objective);

  ASSERT_EQ(on_sparse.lp.status, lp::SolveStatus::Optimal);
  ASSERT_EQ(on_dense.lp.status, lp::SolveStatus::Optimal);
  EXPECT_DOUBLE_EQ(on_sparse.lp.avg_network_delay, on_dense.lp.avg_network_delay);
  EXPECT_EQ(on_sparse.lp.lp_iterations, on_dense.lp.lp_iterations);
  EXPECT_EQ(on_sparse.lp.strategy.probability, on_dense.lp.strategy.probability);

  EXPECT_GT(on_sparse.engine.completed, 0u);
  EXPECT_EQ(on_sparse.engine.issued, on_dense.engine.issued);
  EXPECT_EQ(on_sparse.engine.completed, on_dense.engine.completed);
  EXPECT_EQ(on_sparse.engine.failed, on_dense.engine.failed);
  EXPECT_EQ(on_sparse.engine.dropped_messages, on_dense.engine.dropped_messages);
  EXPECT_DOUBLE_EQ(on_sparse.engine.mean_response_ms, on_dense.engine.mean_response_ms);
  EXPECT_DOUBLE_EQ(on_sparse.engine.mean_network_delay_ms,
                   on_dense.engine.mean_network_delay_ms);
  EXPECT_DOUBLE_EQ(on_sparse.engine.p50_ms, on_dense.engine.p50_ms);
  EXPECT_DOUBLE_EQ(on_sparse.engine.p99_ms, on_dense.engine.p99_ms);

  EXPECT_EQ(on_sparse.iterative.placement.site_of, on_dense.iterative.placement.site_of);
  EXPECT_DOUBLE_EQ(on_sparse.iterative.avg_response, on_dense.iterative.avg_response);
  EXPECT_DOUBLE_EQ(on_sparse.iterative.avg_network_delay,
                   on_dense.iterative.avg_network_delay);
  ASSERT_EQ(on_sparse.iterative.history.size(), on_dense.iterative.history.size());
  for (std::size_t j = 0; j < on_sparse.iterative.history.size(); ++j) {
    const core::IterationRecord& a = on_sparse.iterative.history[j];
    const core::IterationRecord& b = on_dense.iterative.history[j];
    EXPECT_EQ(a.accepted, b.accepted) << "iteration " << j;
    EXPECT_EQ(a.lp_iterations, b.lp_iterations) << "iteration " << j;
    EXPECT_DOUBLE_EQ(a.response_after_placement, b.response_after_placement);
    EXPECT_DOUBLE_EQ(a.network_after_placement, b.network_after_placement);
    EXPECT_DOUBLE_EQ(a.response_after_strategy, b.response_after_strategy);
    EXPECT_DOUBLE_EQ(a.network_after_strategy, b.network_after_strategy);
    EXPECT_DOUBLE_EQ(a.max_capacity_violation, b.max_capacity_violation);
  }

  EXPECT_EQ(on_sparse.singleton.site_of, on_dense.singleton.site_of);
  EXPECT_EQ(on_sparse.nonuniform, on_dense.nonuniform);
}

TEST(CrossModule, MatrixRoundTripPreservesExperimentResults) {
  // Serializing a topology and reloading it must not change any measurement.
  const net::LatencyMatrix original = net::small_synth(10, 101);
  std::stringstream buffer;
  write_matrix(buffer, original);
  const net::LatencyMatrix reloaded = net::read_matrix(buffer);
  const quorum::GridQuorum grid{2};
  const auto placed_a = core::best_grid_placement(original, 2);
  const auto placed_b = core::best_grid_placement(reloaded, 2);
  EXPECT_EQ(placed_a.placement.site_of, placed_b.placement.site_of);
  EXPECT_NEAR(placed_a.avg_network_delay, placed_b.avg_network_delay, 1e-9);
}

}  // namespace
}  // namespace qp
