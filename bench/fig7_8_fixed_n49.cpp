// Figure 7.8: the 7x7 Grid on Planetlab-50 at demand = 16000 — response time
// vs capacity level for uniform and non-uniform capacities, at fixed n = 49.
#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_util.hpp"
#include "eval/figures.hpp"
#include "eval/sweeps.hpp"
#include "net/synthetic.hpp"

namespace {

const qp::net::LatencyMatrix& topology() {
  static const qp::net::LatencyMatrix m = qp::net::planetlab50_synth();
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  std::cout << "# Figure 7.8: 7x7 Grid on Planetlab-50 (synthetic), demand = 16000\n";
  qp::eval::CapacitySweepConfig config;
  config.min_side = 7;
  config.max_side = 7;
  config.include_nonuniform = true;
  config.shard = qp::eval::point_shard_from_env();  // run_all.sh --points K/N.
  qp::bench::emit_rows(qp::eval::capacity_sweep(topology(), config),
                       [](const qp::eval::CapacityPoint& p) {
                         char level[32];
                         std::snprintf(level, sizeof level, "%.3f", p.capacity_level);
                         return std::string("Fig7_8/") +
                                (p.nonuniform ? "nonuniform" : "uniform") + "/cap=" + level;
                       });
  return qp::bench::run_benchmarks(argc, argv);
}
