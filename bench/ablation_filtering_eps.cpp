// Ablation: the Lin–Vitter filtering parameter eps in the many-to-one
// placement pipeline trades delay against capacity violation — small eps
// keeps assignments close to the fractional optimum's distances but
// renormalizes more mass onto fewer nodes (bigger violation); large eps
// tolerates farther nodes but respects capacities more tightly.
#include <benchmark/benchmark.h>

#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "core/capacity.hpp"
#include "core/manytoone.hpp"
#include "core/response.hpp"
#include "core/strategy.hpp"
#include "net/synthetic.hpp"
#include "quorum/grid.hpp"

namespace {

struct Row {
  double eps;
  double lp_bound;
  double achieved_delay;
  double violation;

  template <class F>
  void columns(F&& f) const {
    f("epsilon", eps);
    f("lp_delay_bound_ms", lp_bound);
    f("avg_network_delay_ms", achieved_delay);
    f("max_capacity_violation", violation);
  }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace qp;
  const net::LatencyMatrix m = net::planetlab50_synth();
  const quorum::GridQuorum grid{4};
  const std::size_t quorum_count = grid.universe_size();
  const std::vector<double> probs(quorum_count, 1.0 / static_cast<double>(quorum_count));
  const auto caps = core::uniform_capacities(m.size(), 0.55);
  const std::size_t v0 = 0;

  std::vector<Row> rows;
  // Every client uses the common distribution `probs`.
  const core::ExplicitStrategy common =
      core::common_strategy(grid.enumerate_quorums(1000), probs, m.size());
  for (double eps : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    core::ManyToOneOptions options;
    options.epsilon = eps;
    const auto result = core::many_to_one_placement(m, grid, probs, caps, v0, options);
    if (result.status != lp::SolveStatus::Optimal) continue;
    const double delay =
        core::evaluate_explicit(m, grid, result.placement, 0.0, common).avg_network_delay_ms;
    rows.push_back(Row{eps, result.lp_delay_bound, delay, result.max_capacity_violation});
  }

  std::cout << "# Ablation: Lin-Vitter filtering epsilon (Grid 4x4, Planetlab-50 synthetic,"
               " cap 0.55)\n";
  qp::bench::emit_rows(rows, [](const Row& r) {
    return "AblationFiltering/eps=" + std::to_string(r.eps).substr(0, 4);
  });
  return qp::bench::run_benchmarks(argc, argv);
}
