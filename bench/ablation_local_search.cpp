// Ablation: how close is the paper's constructive Grid placement (§4.1.1,
// best-single-client inductive construction) to a local optimum of the
// average uniform network delay? We compare, per grid side:
//   * the constructed placement,
//   * the constructed placement polished by relocation local search,
//   * local search started from a random one-to-one placement.
#include <benchmark/benchmark.h>

#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/local_search.hpp"
#include "core/placement.hpp"
#include "net/synthetic.hpp"
#include "quorum/grid.hpp"

namespace {

struct Row {
  std::size_t side;
  double constructed;
  double polished;
  double from_random;
  std::size_t polish_moves;

  template <class F>
  void columns(F&& f) const {
    f("side", side);
    f("constructed_ms", constructed);
    f("polished_ms", polished);
    f("from_random_ms", from_random);
    f("polish_moves", polish_moves);
  }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace qp;
  const net::LatencyMatrix m = net::planetlab50_synth();

  std::vector<Row> rows;
  common::Rng rng{2007};
  for (std::size_t side = 2; side <= 6; ++side) {
    const quorum::GridQuorum grid{side};
    const core::PlacementSearchResult constructed = core::best_grid_placement(m, side);
    const core::LocalSearchResult polished =
        core::local_search_placement(m, grid, constructed.placement);
    const core::Placement random{
        rng.sample_without_replacement(m.size(), grid.universe_size())};
    const core::LocalSearchResult from_random =
        core::local_search_placement(m, grid, random);
    rows.push_back(Row{side, constructed.avg_network_delay, polished.objective,
                       from_random.objective, polished.moves});
  }

  std::cout << "# Ablation: constructive Grid placement vs relocation local search\n"
            << "# (avg uniform network delay, ms, Planetlab-50 synthetic)\n";
  qp::bench::emit_rows(
      rows, [](const Row& r) { return "AblationLocalSearch/k=" + std::to_string(r.side); });
  return qp::bench::run_benchmarks(argc, argv);
}
