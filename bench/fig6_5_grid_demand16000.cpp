// Figure 6.5: Grid on daxlist-161 with client_demand = 16000 — response time
// AND network delay for the closest and balanced strategies. The paper's
// headline here: the balanced response *decreases* with universe size while
// its network-delay component increases.
#include <benchmark/benchmark.h>

#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "core/placement.hpp"
#include "core/strategy.hpp"
#include "eval/figures.hpp"
#include "eval/sweeps.hpp"
#include "net/synthetic.hpp"
#include "quorum/grid.hpp"

namespace {

const qp::net::LatencyMatrix& topology() {
  static const qp::net::LatencyMatrix m = qp::net::daxlist161_synth();
  return m;
}

// Timing kernel: closest-quorum selection for all 161 clients.
void BM_ClosestQuorums(benchmark::State& state) {
  const auto& m = topology();
  const auto k = static_cast<std::size_t>(state.range(0));
  const qp::quorum::GridQuorum system{k};
  const auto placement = qp::core::best_grid_placement(m, k).placement;
  for (auto _ : state) {
    auto quorums = qp::core::closest_quorums(m, system, placement);
    benchmark::DoNotOptimize(quorums);
  }
}
BENCHMARK(BM_ClosestQuorums)->Arg(6)->Arg(12)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::cout << "# Figure 6.5: Grid on daxlist-161 (synthetic), demand = 16000\n";
  const std::vector<double> demands{16'000.0};
  // QP_POINT_SHARD (run_all.sh --points K/N) selects a slice of the
  // (side, demand) points so this expensive figure can fan out across hosts.
  qp::bench::emit_rows(
      qp::eval::grid_demand_sweep(topology(), demands, 0, {}, qp::eval::point_shard_from_env()),
      [](const qp::eval::GridDemandPoint& p) {
        return "Fig6_5/" + p.strategy + "/n=" + std::to_string(p.universe);
      });
  return qp::bench::run_benchmarks(argc, argv);
}
