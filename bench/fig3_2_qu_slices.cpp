// Figure 3.2: two slices of the Q/U surface —
//   (a) 100 clients, varying the fault threshold t (universe n = 5t+1);
//   (b) t = 4 (n = 21), varying the number of clients 10..110.
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
  // Slice (a): clients fixed at 100, t = 1..5.
  std::cout << "# Figure 3.2a: 100 clients, t = 1..5\n";
  qp::eval::QuSweepConfig slice_a;
  slice_a.client_counts = {100};
  slice_a.duration_ms = 10'000.0;
  slice_a.warmup_ms = 2'000.0;
  slice_a.service_time_ms = 1.3;  // See fig3_1_qu_surface.cpp.
  qp::bench::emit_rows(
      qp::eval::qu_response_surface(topology(), slice_a),
      [](const qp::eval::QuPoint& p) { return "Fig3_2a/t=" + std::to_string(p.t); });

  // Slice (b): t = 4, clients 10..110.
  std::cout << "# Figure 3.2b: t = 4 (n = 21), clients 10..110\n";
  qp::eval::QuSweepConfig slice_b;
  slice_b.t_values = {4};
  slice_b.client_counts = {10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110};
  slice_b.duration_ms = 10'000.0;
  slice_b.warmup_ms = 2'000.0;
  slice_b.service_time_ms = 1.3;
  qp::bench::emit_rows(qp::eval::qu_response_surface(topology(), slice_b),
                       [](const qp::eval::QuPoint& p) {
                         return "Fig3_2b/clients=" + std::to_string(p.clients);
                       });
  return qp::bench::run_benchmarks(argc, argv);
}
