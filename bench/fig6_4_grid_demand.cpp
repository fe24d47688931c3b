// Figure 6.4: Grid on daxlist-161, closest vs balanced access strategies at
// client_demand in {1000, 4000}, response time vs universe size.
#include <benchmark/benchmark.h>

#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "core/placement.hpp"
#include "core/response.hpp"
#include "eval/figures.hpp"
#include "eval/sweeps.hpp"
#include "net/synthetic.hpp"
#include "quorum/grid.hpp"

namespace {

const qp::net::LatencyMatrix& topology() {
  static const qp::net::LatencyMatrix m = qp::net::daxlist161_synth();
  return m;
}

// Timing kernel: balanced evaluation of a k x k grid on 161 sites.
void BM_BalancedEvaluation(benchmark::State& state) {
  const auto& m = topology();
  const auto k = static_cast<std::size_t>(state.range(0));
  const qp::quorum::GridQuorum system{k};
  const auto placement = qp::core::best_grid_placement(m, k).placement;
  for (auto _ : state) {
    auto eval = qp::core::evaluate_balanced(m, system, placement, 28.0);
    benchmark::DoNotOptimize(eval);
  }
}
BENCHMARK(BM_BalancedEvaluation)->Arg(5)->Arg(12)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::cout << "# Figure 6.4: Grid on daxlist-161 (synthetic), closest vs balanced\n";
  const std::vector<double> demands{1000.0, 4000.0};
  // QP_POINT_SHARD (run_all.sh --points K/N) selects a slice of the
  // (side, demand) points so the figure can fan out across hosts.
  qp::bench::emit_rows(
      qp::eval::grid_demand_sweep(topology(), demands, 0, {}, qp::eval::point_shard_from_env()),
      [](const qp::eval::GridDemandPoint& p) {
        return "Fig6_4/" + p.strategy + "/demand=" +
               std::to_string(static_cast<int>(p.client_demand)) +
               "/n=" + std::to_string(p.universe);
      });
  return qp::bench::run_benchmarks(argc, argv);
}
