// Ablation (§8 future work): the paper's per-element execution model charges
// a site once per hosted universe element a quorum touches; its proposed
// variant executes a request once per touching site. This bench quantifies
// how much the collapsed model would improve response time for placements
// with colocation (many-to-one / singleton), across demand levels.
#include <benchmark/benchmark.h>

#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "core/capacity.hpp"
#include "core/iterative.hpp"
#include "core/placement.hpp"
#include "core/response.hpp"
#include "eval/figures.hpp"
#include "net/synthetic.hpp"
#include "quorum/grid.hpp"

namespace {

const qp::net::LatencyMatrix& topology() {
  static const qp::net::LatencyMatrix m = qp::net::planetlab50_synth();
  return m;
}

struct Row {
  const char* placement;
  double demand;
  double per_element_ms;
  double collapsed_ms;

  template <class F>
  void columns(F&& f) const {
    f("placement", placement);
    f("client_demand", demand);
    f("per_element_response_ms", per_element_ms);
    f("collapsed_response_ms", collapsed_ms);
  }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace qp;
  const auto& m = topology();
  const quorum::GridQuorum grid{5};

  // Three placements with increasing colocation.
  const core::Placement one_to_one = core::best_grid_placement(m, 5).placement;
  core::IterativeOptions options;
  options.anchor_candidates = eval::central_sites(m, 8);
  const core::IterativeResult iterative = core::iterative_placement(
      m, grid, core::uniform_capacities(m.size(), 0.6), core::network_delay_objective(), options);
  const core::Placement singleton = core::singleton_placement(m, grid.universe_size());

  std::vector<Row> rows;
  for (double demand : {1000.0, 4000.0, 16000.0}) {
    const double alpha = core::kQuWriteServiceMs * demand;
    const auto eval_pair = [&](const core::Placement& p, const char* name) {
      const auto pe =
          core::evaluate_balanced(m, grid, p, alpha, {}, core::ExecutionModel::PerElement);
      const auto c =
          core::evaluate_balanced(m, grid, p, alpha, {}, core::ExecutionModel::Collapsed);
      rows.push_back(Row{name, demand, pe.avg_response_ms, c.avg_response_ms});
    };
    eval_pair(one_to_one, "one-to-one");
    eval_pair(iterative.placement, "many-to-one");
    eval_pair(singleton, "singleton");
  }

  std::cout << "# Ablation: per-element vs collapsed execution (balanced strategy, "
               "Grid 5x5, Planetlab-50 synthetic)\n";
  qp::bench::emit_rows(rows, [](const Row& r) {
    return std::string("AblationCollapsed/") + r.placement +
           "/demand=" + std::to_string(static_cast<int>(r.demand));
  });
  return qp::bench::run_benchmarks(argc, argv);
}
