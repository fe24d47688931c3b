// Figure 8.9: network delay of the iterative many-to-one algorithm for a
// 5x5 Grid on Planetlab-50, per iteration/phase, vs the one-to-one
// placement, across node-capacity levels.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <iostream>

#include "bench_util.hpp"
#include "core/capacity.hpp"
#include "core/manytoone.hpp"
#include "core/placement.hpp"
#include "eval/figures.hpp"
#include "eval/sweeps.hpp"
#include "net/synthetic.hpp"
#include "quorum/grid.hpp"

namespace {

const qp::net::LatencyMatrix& topology() {
  static const qp::net::LatencyMatrix m = qp::net::planetlab50_synth();
  return m;
}

// Timing kernel: one many-to-one placement LP + rounding.
void BM_ManyToOnePlacement(benchmark::State& state) {
  const auto& m = topology();
  const qp::quorum::GridQuorum system{static_cast<std::size_t>(state.range(0))};
  const std::size_t quorum_count = system.universe_size();
  const std::vector<double> probs(quorum_count, 1.0 / static_cast<double>(quorum_count));
  const auto caps = qp::core::uniform_capacities(m.size(), 0.6);
  for (auto _ : state) {
    auto result = qp::core::many_to_one_placement(m, system, probs, caps, 0);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ManyToOnePlacement)->Arg(3)->Arg(5)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::cout << "# Figure 8.9: iterative many-to-one, 5x5 Grid on Planetlab-50 (synthetic)\n"
            << "# (anchor search restricted to the 12 most central sites)\n";
  qp::eval::IterativeSweepConfig config;  // side = 5, 10 levels, 12 anchors.
  config.shard = qp::eval::point_shard_from_env();  // run_all.sh --points K/N.
  // QP_ITER_WARM=0 disables phase-2 LP warm starts (CI compares the two runs'
  // objectives; they must agree — warm starts change speed, not optima).
  if (const char* warm = std::getenv("QP_ITER_WARM")) {
    config.warm_start = std::strcmp(warm, "0") != 0;
  }
  qp::bench::emit_rows(qp::eval::iterative_sweep(topology(), config),
                       [](const qp::eval::IterativePoint& p) {
                         char level[32];
                         std::snprintf(level, sizeof level, "%.3f", p.capacity_level);
                         return "Fig8_9/" + p.stage + "/cap=" + level;
                       });
  return qp::bench::run_benchmarks(argc, argv);
}
