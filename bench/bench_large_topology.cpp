// Large-topology figure (beyond the paper's §7): constructive placements vs
// local optima on daxlist-161 (n = 49, 161 clients) and the synthetic
// 500-site scenario, both with power-law client demand — under the
// demand-weighted load-aware (§7 balanced) AND closest-strategy (§6)
// objectives. Exercises the whole new stack end-to-end: scenario generator
// -> demand-weighted objective-scored constructive placement -> incremental
// local search (quorum-choice tables for the closest rows) -> figure rows.
// The local-opt rows quantify how much response time the paper's
// constructions leave on the table once load matters; stage_ms records the
// wall-clock the DeltaEvaluator engine needs at 500 sites.
//
// The sparse-scaling section is the time-vs-n table of the O(n^2)-wall work:
// embedding-space scenarios at n in {500, 2k, 10k, 50k} (QP_LT_SCALING
// overrides the list; QP_LT_ROUNDS bounds the search rounds, QP_LT_DENSE=0
// skips the dense sweeps above for CI smoke). Each row runs the full sparse
// stack — O(n) generation, kd-tree k-NN index, capped client candidate
// lists, candidate_knn-restricted local search — and reports per-move and
// per-candidate cost, whose sub-quadratic growth is the acceptance check.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/client_index.hpp"
#include "core/delta_eval.hpp"
#include "core/local_search.hpp"
#include "core/objective.hpp"
#include "core/placement.hpp"
#include "eval/figures.hpp"
#include "eval/sweeps.hpp"
#include "net/knn_index.hpp"
#include "quorum/grid.hpp"
#include "sim/scenario.hpp"

namespace {

using namespace qp;

const sim::Scenario& synth500() {
  static const sim::Scenario scenario = sim::synthetic500_scenario();
  return scenario;
}

// Timing kernel: one load-aware candidate evaluation on the 500-site
// scenario (Grid 7x7) — the inner operation the local search performs
// ~22k times per round. Demand-weighted (the scenario's Pareto vector).
void BM_LoadAwareDeltaCandidate500(benchmark::State& state) {
  const sim::Scenario& scenario = synth500();
  const quorum::GridQuorum grid{7};
  const core::LoadAwareObjective objective = scenario.load_objective();
  const core::Placement placement =
      core::best_grid_placement(scenario.matrix, 7).placement;
  const core::DeltaEvaluator eval{scenario.matrix, grid, placement, objective};
  bench::CandidateCycle cycle{placement, scenario.matrix.size()};
  for (auto _ : state) {
    const auto [element, site] = cycle.next();
    benchmark::DoNotOptimize(eval.objective_if_moved(element, site));
  }
}
BENCHMARK(BM_LoadAwareDeltaCandidate500)->Unit(benchmark::kMicrosecond);

// Same shape for the §6 closest-strategy objective: the quorum-choice
// tables answer the candidate, repricing only flipped choices — but
// scanning all 500 clients per candidate. This full scan is the route every
// dense-matrix search takes.
void BM_ClosestDeltaCandidate500(benchmark::State& state) {
  const sim::Scenario& scenario = synth500();
  const quorum::GridQuorum grid{7};
  const core::ClosestStrategyObjective objective = scenario.closest_objective();
  const core::Placement placement =
      core::best_grid_placement(scenario.matrix, 7).placement;
  const core::DeltaEvaluator eval{scenario.matrix, grid, placement, objective};
  bench::CandidateCycle cycle{placement, scenario.matrix.size()};
  for (auto _ : state) {
    const auto [element, site] = cycle.next();
    benchmark::DoNotOptimize(eval.objective_if_moved(element, site));
  }
}
BENCHMARK(BM_ClosestDeltaCandidate500)->Unit(benchmark::kMicrosecond);

// The implicit-space route on the same scenario: the candidate goes through
// the site->clients index, touching only the clients the move can affect.
// The lists hold the 64 nearest sites of each client (the cap the 10k-50k
// search runs: approximate ranking, exact applies). On a dense 500-site
// matrix it does not beat the full scan above; its gain is the scaling
// table's sub-quadratic growth.
void BM_ClosestDeltaCandidate500Indexed(benchmark::State& state) {
  const sim::Scenario& scenario = synth500();
  const quorum::GridQuorum grid{7};
  const core::ClosestStrategyObjective objective = scenario.closest_objective();
  const core::Placement placement =
      core::best_grid_placement(scenario.matrix, 7).placement;
  core::DeltaEvaluator eval{scenario.matrix, grid, placement, objective};
  const net::KnnIndex knn{scenario.matrix};
  const core::ClientCandidateIndex index = core::ClientCandidateIndex::build(knn, 64);
  eval.attach_candidate_index(&index);
  bench::CandidateCycle cycle{placement, scenario.matrix.size()};
  for (auto _ : state) {
    const auto [element, site] = cycle.next();
    benchmark::DoNotOptimize(eval.objective_if_moved(element, site));
  }
}
BENCHMARK(BM_ClosestDeltaCandidate500Indexed)->Unit(benchmark::kMicrosecond);

// Env knob parsing for the scaling table. QP_LT_SCALING="10000" runs one
// row (the CI smoke shape); "off" disables the section.
std::vector<std::size_t> scaling_sizes() {
  const char* env = std::getenv("QP_LT_SCALING");
  const std::string spec = env != nullptr ? env : "500,2000,10000,50000";
  std::vector<std::size_t> sizes;
  if (spec == "off" || spec == "0") return sizes;
  std::stringstream stream{spec};
  std::string token;
  while (std::getline(stream, token, ',')) {
    const unsigned long long n = std::stoull(token);
    if (n > 0) sizes.push_back(static_cast<std::size_t>(n));
  }
  return sizes;
}

std::size_t scaling_rounds() {
  const char* env = std::getenv("QP_LT_ROUNDS");
  return env != nullptr ? static_cast<std::size_t>(std::stoull(env)) : 10;
}

std::size_t scaling_knn() {
  const char* env = std::getenv("QP_LT_KNN");
  return env != nullptr ? static_cast<std::size_t>(std::stoull(env)) : 64;
}

struct ScalingRow {
  std::size_t n = 0;
  double gen_ms = 0.0;
  double knn_build_ms = 0.0;
  double search_ms = 0.0;
  std::size_t moves = 0;
  double per_move_ms = 0.0;
  double per_candidate_us = 0.0;
  double response_ms = 0.0;

  template <class F>
  void columns(F&& f) const {
    f("n", n);
    f("gen_ms", gen_ms);
    f("knn_build_ms", knn_build_ms);
    f("search_ms", search_ms);
    f("moves", moves);
    f("per_move_ms", per_move_ms);
    f("per_candidate_us", per_candidate_us);
    f("response_ms", response_ms);
  }
};

double elapsed_ms(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   since)
      .count();
}

/// One scaling row: sparse scenario -> kd-tree -> candidate_knn-restricted
/// local search of a Grid 7x7 under the demand-weighted closest objective,
/// from a deterministic stride placement (one site every n/49).
ScalingRow run_scaling_point(std::size_t n, std::size_t max_rounds,
                             std::size_t candidate_knn) {
  ScalingRow row;
  row.n = n;

  auto start = std::chrono::steady_clock::now();
  sim::ScenarioConfig config;
  config.site_count = n;
  const sim::SparseScenario scenario = sim::make_sparse_scenario(config);
  row.gen_ms = elapsed_ms(start);

  start = std::chrono::steady_clock::now();
  const net::KnnIndex knn{scenario.space};
  row.knn_build_ms = elapsed_ms(start);

  const quorum::GridQuorum grid{7};
  const core::ClosestStrategyObjective objective = scenario.closest_objective();
  core::Placement initial;
  initial.site_of.resize(grid.universe_size());
  const std::size_t stride = std::max<std::size_t>(1, n / grid.universe_size());
  for (std::size_t u = 0; u < grid.universe_size(); ++u) {
    initial.site_of[u] = u * stride;
  }

  core::LocalSearchOptions options;
  options.objective = &objective;
  options.max_rounds = max_rounds;
  options.candidate_knn = candidate_knn;
  options.knn = &knn;
  options.threads = 1;

  start = std::chrono::steady_clock::now();
  const core::LocalSearchResult result =
      core::local_search_placement(scenario.space, grid, initial, options);
  row.search_ms = elapsed_ms(start);

  row.moves = result.moves;
  row.response_ms = result.objective;
  // BestImprovement scans the full candidate list every round; the last
  // round (if within max_rounds) finds nothing and stops.
  const std::size_t rounds = std::min(max_rounds, result.moves + 1);
  const double candidates = static_cast<double>(rounds) *
                            static_cast<double>(grid.universe_size() * candidate_knn);
  row.per_move_ms = row.search_ms / static_cast<double>(std::max<std::size_t>(1, result.moves));
  row.per_candidate_us = candidates > 0.0 ? row.search_ms * 1000.0 / candidates : 0.0;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const char* dense_env = std::getenv("QP_LT_DENSE");
  if (dense_env == nullptr || std::string{dense_env} != "0") {
    std::cout << "# Large topologies: constructive vs load-aware local optimum\n";
    std::vector<eval::LargeTopologyPoint> points;
    const sim::Scenario daxlist = sim::daxlist161_scenario();
    for (const sim::Scenario* scenario : {&daxlist, &synth500()}) {
      const auto rows = eval::large_topology_sweep(*scenario);
      points.insert(points.end(), rows.begin(), rows.end());
    }
    qp::bench::emit_rows(points, [](const eval::LargeTopologyPoint& p) {
      return "LargeTopology/" + p.scenario + "/" + p.system + "/" + p.objective + "/" + p.stage;
    });
  }

  // --- Time-vs-n scaling of the sparse stack (the O(n^2)-wall table).
  const std::size_t rounds = scaling_rounds();
  const std::size_t knn_k = scaling_knn();
  std::vector<ScalingRow> scaling;
  for (const std::size_t n : scaling_sizes()) {
    scaling.push_back(run_scaling_point(n, rounds, knn_k));
  }
  if (!scaling.empty()) {
    std::cout << "# Sparse scaling: closest objective, Grid 7x7, candidate_knn=" << knn_k
              << ", " << rounds << " rounds max\n";
    qp::bench::emit_rows(scaling, [](const ScalingRow& row) {
      return "LargeTopology/scaling/n=" + std::to_string(row.n);
    });
  }
  return qp::bench::run_benchmarks(argc, argv);
}
