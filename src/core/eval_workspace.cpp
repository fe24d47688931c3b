#include "core/eval_workspace.hpp"

namespace qp::core {

// The fill kernels below are gathers (indexed by site_of) through
// LatencySpace::fill_rtts; LatencyMatrix reads the client's row with a
// scalar loop. The reductions those values feed — the Majority order-stat
// dot, the Grid row/column maxima and quorum-maxima sums — run through the
// fixed-order common/simd_kernels.hpp kernels inside each QuorumSystem's
// expected_max_uniform_scratch.

void fill_element_distances(const net::LatencySpace& space, const Placement& placement,
                            std::size_t client, std::vector<double>& out) {
  const std::size_t n = placement.universe_size();
  out.resize(n);
  space.fill_rtts(client, placement.site_of.data(), n, out.data());
}

void fill_element_values(const net::LatencySpace& space, const Placement& placement,
                         std::span<const double> site_load, double alpha,
                         std::size_t client, std::vector<double>& out) {
  fill_element_distances(space, placement, client, out);
  const double* load = site_load.data();
  const std::size_t* site = placement.site_of.data();
  double* y = out.data();
  for (std::size_t u = 0; u < out.size(); ++u) y[u] += alpha * load[site[u]];
}

}  // namespace qp::core
