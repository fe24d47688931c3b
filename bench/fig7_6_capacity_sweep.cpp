// Figure 7.6: Grid on Planetlab-50 under demand = 16000, LP-optimized access
// strategies for the uniform capacity levels c_i = L_opt + i*(1-L_opt)/10,
// across universe sizes 4..49.
#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_util.hpp"
#include "core/capacity.hpp"
#include "core/placement.hpp"
#include "core/strategy.hpp"
#include "eval/figures.hpp"
#include "eval/sweeps.hpp"
#include "net/synthetic.hpp"
#include "quorum/grid.hpp"

namespace {

const qp::net::LatencyMatrix& topology() {
  static const qp::net::LatencyMatrix m = qp::net::planetlab50_synth();
  return m;
}

// Timing kernel: one access-strategy LP solve (the workhorse of §7).
void BM_StrategyLp(benchmark::State& state) {
  const auto& m = topology();
  const auto k = static_cast<std::size_t>(state.range(0));
  const qp::quorum::GridQuorum system{k};
  const auto placement = qp::core::best_grid_placement(m, k).placement;
  const auto caps =
      qp::core::uniform_capacities(m.size(), system.optimal_load() * 1.5);
  for (auto _ : state) {
    auto lp = qp::core::optimize_access_strategy(m, system, placement, caps);
    benchmark::DoNotOptimize(lp);
  }
}
BENCHMARK(BM_StrategyLp)->Arg(3)->Arg(5)->Arg(7)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::cout << "# Figure 7.6: Grid on Planetlab-50 (synthetic), demand = 16000,\n"
            << "# LP access strategies at uniform capacity levels\n";
  qp::eval::CapacitySweepConfig config;  // Defaults: sides 2..7, 10 levels.
  config.shard = qp::eval::point_shard_from_env();  // run_all.sh --points K/N.
  qp::bench::emit_rows(qp::eval::capacity_sweep(topology(), config),
                       [](const qp::eval::CapacityPoint& p) {
                         char level[32];
                         std::snprintf(level, sizeof level, "%.3f", p.capacity_level);
                         return "Fig7_6/n=" + std::to_string(p.universe) + "/cap=" + level;
                       });
  return qp::bench::run_benchmarks(argc, argv);
}
