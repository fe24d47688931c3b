// Figure 3.1: the Q/U response-time / network-delay surface over
// (number of clients, universe size), reproduced with closed-loop clients
// on the queueing engine (sim/engine) in place of the paper's Modelnet
// testbed.
#include <benchmark/benchmark.h>

#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "core/placement.hpp"
#include "eval/figures.hpp"
#include "eval/sweeps.hpp"
#include "net/synthetic.hpp"
#include "quorum/majority.hpp"
#include "sim/client_sites.hpp"
#include "sim/engine.hpp"

namespace {

const qp::net::LatencyMatrix& topology() {
  static const qp::net::LatencyMatrix m = qp::net::planetlab50_synth();
  return m;
}

// Timing kernel: one simulated second of the t=2 system with 50
// closed-loop clients.
void BM_ClosedLoopSimulation(benchmark::State& state) {
  const auto& m = topology();
  const qp::quorum::MajorityQuorum system =
      qp::quorum::make_majority(qp::quorum::MajorityFamily::QuThreshold, 2);
  const auto placement = qp::core::best_majority_placement(m, system).placement;
  const std::vector<double> clients = qp::sim::client_site_mask(
      m.size(), qp::sim::representative_client_sites(m, system, placement, 10));
  qp::sim::EngineConfig config;
  config.closed_loop_clients = 5;
  config.duration_ms = 1000.0;
  config.warmup_ms = 100.0;
  config.replications = 1;
  for (auto _ : state) {
    auto result = qp::sim::run_engine(m, system, placement, clients, config);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ClosedLoopSimulation)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::cout << "# Figure 3.1: Q/U response time & network delay surface (DES)\n";
  qp::eval::QuSweepConfig config;
  config.duration_ms = 10'000.0;
  config.warmup_ms = 2'000.0;
  // 1 ms per §3 plus the real Q/U implementation's per-message CPU cost
  // (absent from the paper's stated model but present in its testbed
  // numbers).
  config.service_time_ms = 1.3;
  qp::bench::emit_rows(qp::eval::qu_response_surface(topology(), config),
                       [](const qp::eval::QuPoint& p) {
                         return "Fig3_1/t=" + std::to_string(p.t) +
                                "/clients=" + std::to_string(p.clients);
                       });
  return qp::bench::run_benchmarks(argc, argv);
}
