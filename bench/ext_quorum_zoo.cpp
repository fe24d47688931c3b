// Extension figure: the paper's Figure 6.3 comparison (closest strategy,
// alpha = 0) extended with the Tree and finite-projective-plane systems, to
// place the extensions on the quorum-size / network-delay spectrum.
#include <benchmark/benchmark.h>

#include <iostream>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "core/placement.hpp"
#include "core/response.hpp"
#include "net/synthetic.hpp"
#include "quorum/fpp.hpp"
#include "quorum/grid.hpp"
#include "quorum/majority.hpp"
#include "quorum/singleton.hpp"
#include "quorum/tree.hpp"

namespace {

struct Row {
  std::string system;
  std::size_t universe;
  double quorum_size;  // Size of the system's smallest quorum.
  double response_ms;
  double load;

  template <class F>
  void columns(F&& f) const {
    f("system", system);
    f("universe", universe);
    f("min_quorum_size", quorum_size);
    f("response_ms", response_ms);
    f("optimal_load", load);
  }
};

Row evaluate(const qp::net::LatencyMatrix& m, const qp::quorum::QuorumSystem& system) {
  using namespace qp;
  // Generic placement: best ball placement over all anchors (optimal for
  // majorities, a sensible default for the others).
  const core::PlacementSearchResult placed = core::best_placement(
      m, system, [&](std::size_t v0) {
        return core::majority_ball_placement(m, system.universe_size(), v0);
      });
  const core::Evaluation eval =
      core::evaluate_closest(m, system, placed.placement, /*alpha=*/0.0);
  std::size_t smallest = system.universe_size();
  for (const auto& quorum : system.enumerate_quorums()) {
    smallest = std::min(smallest, quorum.size());
  }
  return Row{system.name(), system.universe_size(), static_cast<double>(smallest),
             eval.avg_response_ms, system.optimal_load()};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qp;
  const net::LatencyMatrix m = net::planetlab50_synth();

  std::vector<Row> rows;
  rows.push_back(evaluate(m, quorum::SingletonQuorum{}));
  for (std::size_t t : {1u, 3u, 5u}) {
    rows.push_back(evaluate(m, quorum::make_majority(quorum::MajorityFamily::SimpleMajority, t)));
  }
  for (std::size_t k : {3u, 5u, 7u}) {
    const quorum::GridQuorum grid{k};
    // Grid gets its specialized construction.
    const auto placed = core::best_grid_placement(m, k);
    const auto eval = core::evaluate_closest(m, grid, placed.placement, 0.0);
    rows.push_back(Row{grid.name(), grid.universe_size(),
                       static_cast<double>(2 * k - 1), eval.avg_response_ms,
                       grid.optimal_load()});
  }
  for (std::size_t h : {1u, 2u, 3u, 4u}) {
    rows.push_back(evaluate(m, quorum::TreeQuorum{h}));
  }
  for (std::size_t q : {2u, 3u, 5u}) {
    rows.push_back(evaluate(m, quorum::FppQuorum{q}));
  }

  std::cout << "# Extension: closest-strategy response (alpha=0) for the full quorum zoo\n"
            << "# on Planetlab-50 (synthetic); load = L_opt of the system\n";
  qp::bench::emit_rows(rows, [](const Row& r) { return "QuorumZoo/" + r.system; });
  return qp::bench::run_benchmarks(argc, argv);
}
