#include "sim/client_sites.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "core/eval_workspace.hpp"

namespace qp::sim {

std::vector<std::size_t> representative_client_sites(const net::LatencyMatrix& matrix,
                                                     const quorum::QuorumSystem& system,
                                                     const core::Placement& placement,
                                                     std::size_t count) {
  if (count == 0 || count > matrix.size()) {
    throw std::invalid_argument{"representative_client_sites: bad count"};
  }
  placement.validate(matrix.size());
  std::vector<double> delay(matrix.size());
  std::vector<double> distances;
  for (std::size_t v = 0; v < matrix.size(); ++v) {
    core::fill_element_distances(matrix, placement, v, distances);
    delay[v] = system.expected_max_uniform(distances);
  }
  const double target =
      std::accumulate(delay.begin(), delay.end(), 0.0) / static_cast<double>(delay.size());

  std::vector<std::size_t> order(matrix.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return std::abs(delay[a] - target) < std::abs(delay[b] - target);
  });
  order.resize(count);
  std::sort(order.begin(), order.end());
  return order;
}

std::vector<double> client_site_mask(std::size_t site_count,
                                     std::span<const std::size_t> sites) {
  std::vector<double> mask(site_count, 0.0);
  for (std::size_t site : sites) mask.at(site) = 1.0;
  return mask;
}

}  // namespace qp::sim
