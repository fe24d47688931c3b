#include "core/capacity.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace qp::core {

std::vector<double> uniform_capacity_levels(double l_opt, std::size_t count) {
  if (!(l_opt > 0.0) || l_opt > 1.0) {
    throw std::invalid_argument{"uniform_capacity_levels: l_opt must be in (0,1]"};
  }
  if (count == 0) throw std::invalid_argument{"uniform_capacity_levels: count must be > 0"};
  const double lambda = (1.0 - l_opt) / static_cast<double>(count);
  std::vector<double> levels(count);
  for (std::size_t i = 1; i <= count; ++i) {
    levels[i - 1] = l_opt + static_cast<double>(i) * lambda;
  }
  return levels;
}

std::vector<double> nonuniform_capacities(const net::LatencySpace& space,
                                          std::span<const std::size_t> support, double beta,
                                          double gamma) {
  if (support.empty()) throw std::invalid_argument{"nonuniform_capacities: empty support"};
  if (!(beta >= 0.0) || beta > gamma || gamma > 1.0) {
    throw std::invalid_argument{"nonuniform_capacities: need 0 <= beta <= gamma <= 1"};
  }
  std::vector<double> inverse_distance(support.size());
  double le = std::numeric_limits<double>::infinity();
  double re = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < support.size(); ++i) {
    const double s = net::average_rtt_from(space, support[i]);
    if (s <= 0.0) {
      throw std::invalid_argument{"nonuniform_capacities: zero average distance"};
    }
    inverse_distance[i] = 1.0 / s;
    le = std::min(le, inverse_distance[i]);
    re = std::max(re, inverse_distance[i]);
  }
  std::vector<double> capacities(space.size(), gamma);
  const double range = re - le;
  for (std::size_t i = 0; i < support.size(); ++i) {
    const double cap =
        range > 1e-15 ? (inverse_distance[i] - le) / range * (gamma - beta) + beta : gamma;
    capacities[support[i]] = cap;
  }
  return capacities;
}

std::vector<double> uniform_capacities(std::size_t site_count, double level) {
  if (level < 0.0) throw std::invalid_argument{"uniform_capacities: negative level"};
  return std::vector<double>(site_count, level);
}

}  // namespace qp::core
