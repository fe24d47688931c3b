// Figure 6.3: response times on Planetlab-50, alpha = 0, closest access
// strategy, for the three Majority families, Grid, and the singleton, as
// universe size grows.
#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_util.hpp"
#include "core/placement.hpp"
#include "eval/figures.hpp"
#include "eval/sweeps.hpp"
#include "net/synthetic.hpp"
#include "quorum/majority.hpp"

namespace {

const qp::net::LatencyMatrix& topology() {
  static const qp::net::LatencyMatrix m = qp::net::planetlab50_synth();
  return m;
}

// Genuine timing benchmark: one full best-placement search + closest-strategy
// evaluation for the (t+1,2t+1) majority at t = 5 (n = 11).
void BM_MajorityPlacementSearch(benchmark::State& state) {
  const auto& m = topology();
  const qp::quorum::MajorityQuorum system =
      qp::quorum::make_majority(qp::quorum::MajorityFamily::SimpleMajority,
                                static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto result = qp::core::best_majority_placement(m, system);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_MajorityPlacementSearch)->Arg(2)->Arg(5)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::cout << "# Figure 6.3: closest strategy, alpha = 0, Planetlab-50 (synthetic)\n";
  qp::bench::emit_rows(qp::eval::low_demand_sweep(topology()),
                       [](const qp::eval::LowDemandPoint& p) {
                         return "Fig6_3/" + p.system + "/n=" + std::to_string(p.universe);
                       });
  return qp::bench::run_benchmarks(argc, argv);
}
