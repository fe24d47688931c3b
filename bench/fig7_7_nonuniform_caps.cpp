// Figure 7.7: Grid on Planetlab-50, demand = 16000 — uniform vs non-uniform
// node capacities ([beta,gamma] = [L_opt, c_i]) across universe sizes.
#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_util.hpp"
#include "core/capacity.hpp"
#include "eval/figures.hpp"
#include "eval/sweeps.hpp"
#include "net/synthetic.hpp"

namespace {

const qp::net::LatencyMatrix& topology() {
  static const qp::net::LatencyMatrix m = qp::net::planetlab50_synth();
  return m;
}

// Timing kernel: the non-uniform capacity assignment itself.
void BM_NonuniformCapacities(benchmark::State& state) {
  const auto& m = topology();
  std::vector<std::size_t> support;
  for (std::size_t v = 0; v < 25; ++v) support.push_back(v);
  for (auto _ : state) {
    auto caps = qp::core::nonuniform_capacities(m, support, 0.36, 0.9);
    benchmark::DoNotOptimize(caps);
  }
}
BENCHMARK(BM_NonuniformCapacities);

}  // namespace

int main(int argc, char** argv) {
  std::cout << "# Figure 7.7: Grid on Planetlab-50 (synthetic), demand = 16000,\n"
            << "# uniform vs non-uniform capacities\n";
  qp::eval::CapacitySweepConfig config;
  config.include_nonuniform = true;
  config.shard = qp::eval::point_shard_from_env();  // run_all.sh --points K/N.
  qp::bench::emit_rows(qp::eval::capacity_sweep(topology(), config),
                       [](const qp::eval::CapacityPoint& p) {
                         char level[32];
                         std::snprintf(level, sizeof level, "%.3f", p.capacity_level);
                         return std::string("Fig7_7/") +
                                (p.nonuniform ? "nonuniform" : "uniform") +
                                "/n=" + std::to_string(p.universe) + "/cap=" + level;
                       });
  return qp::bench::run_benchmarks(argc, argv);
}
