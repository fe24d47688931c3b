// bench_lp_solver: the strategy-LP solver on the phase-LP sequences the
// capacity sweep and the iterative alternation actually solve — one
// placement, a descending ladder of capacity levels over the same support
// set, each level warm-startable from the previous optimal basis.
//
// Rows per topology size n (grid 7x7 universe, best-grid placement):
//   LpSolver/phase_ladder_cold_revised/nN  — sparse revised simplex, every
//                                            level without a caller basis
//                                            (crash-started on the closest
//                                            quorums, see core/strategy.hpp);
//   LpSolver/phase_ladder_warm_revised/nN  — sparse revised simplex, each
//                                            level warm-started from the
//                                            previous level's basis.
// Counters are the row's numeric CSV columns: levels solved, ms_total over
// the ladder, simplex iterations summed, and the max relative objective
// disagreement vs the cold revised row.
// The ladder starts at the peak site load of the uncapacitated optimum
// (each client on its lowest-index minimum-delay quorum) and tightens in 4%
// steps while the LP stays feasible, so the capacity rows can bind.
//
// Genuine timing benchmarks (per-iteration, benchmark-looped):
//   LpSolver/warm_resolve/n161|n500        — one warm re-solve at the
//                                            tightest feasible level;
//   LpSolver/cold_revised_solve/n161       — the same solve without a
//                                            caller basis (crash-started).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstddef>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/placement.hpp"
#include "core/strategy.hpp"
#include "lp/revised_simplex.hpp"
#include "net/latency_matrix.hpp"
#include "quorum/grid.hpp"
#include "sim/scenario.hpp"

namespace {

using qp::core::StrategyLpOptions;
using qp::core::StrategyLpResult;

/// One CSV row and benchmark point: a case's ladder solved by one engine.
struct LadderRow {
  std::string case_label;
  std::string engine;
  std::size_t levels = 0;
  double ms_total = 0.0;
  std::size_t iterations = 0;
  double max_rel_diff = 0.0;       // Objective disagreement vs the cold ladder.
  std::vector<double> objectives;  // One per solved level (not a column).

  template <class F>
  void columns(F&& f) const {
    f("case", case_label);
    f("engine", engine);
    f("levels", levels);
    f("ms_total", ms_total);
    f("iterations", iterations);
    f("max_rel_diff", max_rel_diff);
  }
};

double max_rel_diff(const std::vector<double>& a, const std::vector<double>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    worst = std::max(worst,
                     std::abs(a[i] - b[i]) / std::max(1.0, std::abs(b[i])));
  }
  return worst;
}

struct SizedCase {
  std::string label;
  std::shared_ptr<qp::net::LatencyMatrix> matrix;
  std::shared_ptr<qp::core::Placement> placement;
  std::shared_ptr<std::vector<std::vector<double>>> ladder;
};

/// Solves the case's whole capacity ladder, optionally chaining each
/// level's optimal basis into the next solve.
LadderRow run_ladder(const SizedCase& sized, const qp::quorum::QuorumSystem& system,
                     bool warm) {
  LadderRow out;
  out.case_label = sized.label;
  out.engine = warm ? "warm_revised" : "cold_revised";
  qp::lp::Basis basis;
  const auto start = std::chrono::steady_clock::now();
  for (const std::vector<double>& caps : *sized.ladder) {
    StrategyLpOptions options;
    if (warm) options.simplex.initial_basis = basis;
    const StrategyLpResult lp = qp::core::optimize_access_strategy(
        *sized.matrix, system, *sized.placement, caps, {}, options);
    if (lp.status != qp::lp::SolveStatus::Optimal) {
      throw std::runtime_error{"bench_lp_solver: ladder level not optimal"};
    }
    out.iterations += lp.lp_iterations;
    out.objectives.push_back(lp.avg_network_delay);
    if (warm) basis = lp.basis;
  }
  const auto stop = std::chrono::steady_clock::now();
  out.ms_total = std::chrono::duration<double, std::milli>(stop - start).count();
  out.levels = out.objectives.size();
  return out;
}

SizedCase make_case(qp::sim::Scenario scenario, const qp::quorum::QuorumSystem& system) {
  SizedCase out;
  const std::size_t n = scenario.site_count();
  out.label = "n" + std::to_string(n);
  out.matrix = std::make_shared<qp::net::LatencyMatrix>(std::move(scenario.matrix));
  out.placement = std::make_shared<qp::core::Placement>(
      qp::core::best_grid_placement(*out.matrix, 7).placement);

  // Uncapacitated optimum -> peak site load L; ladder = fractions of L that
  // stay feasible. Infeasible levels end the ladder (the cold and warm rows
  // solve the identical level list).
  const std::vector<double> loose(n, 1e9);
  const StrategyLpResult free_lp =
      qp::core::optimize_access_strategy(*out.matrix, system, *out.placement, loose);
  if (free_lp.status != qp::lp::SolveStatus::Optimal) {
    throw std::runtime_error{"bench_lp_solver: uncapacitated solve failed"};
  }
  const std::vector<double> load = qp::core::site_loads_explicit(
      free_lp.strategy, *out.placement, n);
  double peak = 0.0;
  for (double l : load) peak = std::max(peak, l);

  out.ladder = std::make_shared<std::vector<std::vector<double>>>();
  for (double fraction : {1.00, 0.96, 0.92, 0.88, 0.84, 0.80}) {
    std::vector<double> caps(n, fraction * peak);
    const StrategyLpResult lp =
        qp::core::optimize_access_strategy(*out.matrix, system, *out.placement, caps);
    if (lp.status != qp::lp::SolveStatus::Optimal) break;
    out.ladder->push_back(std::move(caps));
  }
  if (out.ladder->empty()) {
    throw std::runtime_error{"bench_lp_solver: no feasible ladder level"};
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  auto grid = std::make_shared<qp::quorum::GridQuorum>(7);

  std::vector<SizedCase> cases;
  {
    qp::sim::ScenarioConfig small;
    small.site_count = 49;
    cases.push_back(make_case(qp::sim::make_scenario(small), *grid));
  }
  cases.push_back(make_case(qp::sim::daxlist161_scenario(), *grid));
  cases.push_back(make_case(qp::sim::synthetic500_scenario(), *grid));
  {
    qp::sim::ScenarioConfig large;
    large.site_count = 2000;
    cases.push_back(make_case(qp::sim::make_scenario(large), *grid));
  }

  std::vector<LadderRow> rows;
  for (const SizedCase& sized : cases) {
    LadderRow cold = run_ladder(sized, *grid, /*warm=*/false);
    LadderRow warm = run_ladder(sized, *grid, /*warm=*/true);
    warm.max_rel_diff = max_rel_diff(warm.objectives, cold.objectives);
    rows.push_back(std::move(cold));
    rows.push_back(std::move(warm));
  }
  qp::bench::emit_rows(rows, [](const LadderRow& row) {
    return "LpSolver/phase_ladder_" + row.engine + "/" + row.case_label;
  });

  // Genuine timing rows: one solve per benchmark iteration at the tightest
  // feasible level, warm-started from that level's own converged basis
  // (what a capacity-sweep re-solve or a converged alternation pays) and
  // without a caller basis (the closest-quorum crash start).
  for (const SizedCase& sized : cases) {
    if (sized.label != "n161" && sized.label != "n500") continue;
    const std::vector<double>& caps = sized.ladder->back();
    const StrategyLpResult seed =
        qp::core::optimize_access_strategy(*sized.matrix, *grid, *sized.placement, caps);
    const auto basis = std::make_shared<qp::lp::Basis>(seed.basis);
    benchmark::RegisterBenchmark(
        ("LpSolver/warm_resolve/" + sized.label).c_str(),
        [&sized, grid, basis, &caps](benchmark::State& state) {
          for (auto _ : state) {
            StrategyLpOptions options;
            options.simplex.initial_basis = *basis;
            const StrategyLpResult lp = qp::core::optimize_access_strategy(
                *sized.matrix, *grid, *sized.placement, caps, {}, options);
            benchmark::DoNotOptimize(lp.avg_network_delay);
          }
        });
    if (sized.label == "n161") {
      benchmark::RegisterBenchmark(
          "LpSolver/cold_revised_solve/n161",
          [&sized, grid, &caps](benchmark::State& state) {
            for (auto _ : state) {
              const StrategyLpResult lp = qp::core::optimize_access_strategy(
                  *sized.matrix, *grid, *sized.placement, caps);
              benchmark::DoNotOptimize(lp.avg_network_delay);
            }
          });
    }
  }

  return qp::bench::run_benchmarks(argc, argv);
}
