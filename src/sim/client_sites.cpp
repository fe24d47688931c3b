#include "sim/client_sites.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "core/response.hpp"

namespace qp::sim {

std::vector<std::size_t> representative_client_sites(const net::LatencySpace& space,
                                                     const quorum::QuorumSystem& system,
                                                     const core::Placement& placement,
                                                     std::size_t count) {
  if (count == 0 || count > space.size()) {
    throw std::invalid_argument{"representative_client_sites: bad count"};
  }
  // Delta_v per client under the uniform strategy, and its average.
  const core::Evaluation uniform = core::evaluate_balanced(space, system, placement, 0.0);
  const std::vector<double>& delay = uniform.per_client_response;
  const double target = uniform.avg_response_ms;

  std::vector<std::size_t> order(space.size());
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
