#include "net/latency_space.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace qp::net {

std::vector<double> rtt_row(const LatencySpace& space, std::size_t v) {
  if (v >= space.size()) throw std::out_of_range{"LatencySpace: site out of range"};
  std::vector<std::size_t> sites(space.size());
  std::iota(sites.begin(), sites.end(), std::size_t{0});
  std::vector<double> row(sites.size());
  space.fill_rtts(v, sites.data(), sites.size(), row.data());
  return row;
}

double average_rtt_from(const LatencySpace& space, std::size_t v) {
  const std::vector<double> row = rtt_row(space, v);
  return std::accumulate(row.begin(), row.end(), 0.0) / static_cast<double>(row.size());
}

std::size_t median_site(const LatencySpace& space) {
  if (space.size() == 0) throw std::logic_error{"median_site: empty space"};
  std::size_t best = 0;
  double best_sum = std::numeric_limits<double>::infinity();
  for (std::size_t v = 0; v < space.size(); ++v) {
    const std::vector<double> row = rtt_row(space, v);
    const double sum = std::accumulate(row.begin(), row.end(), 0.0);
    if (sum < best_sum) {
      best_sum = sum;
      best = v;
    }
  }
  return best;
}

std::vector<std::size_t> ball(const LatencySpace& space, std::size_t v, std::size_t k) {
  const std::vector<double> row = rtt_row(space, v);
  if (k > row.size()) throw std::invalid_argument{"ball: k > site count"};
  std::vector<std::size_t> order(row.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Stable over the identity order: equal RTTs stay in site-index order.
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return row[a] < row[b]; });
  order.resize(k);
  return order;
}

}  // namespace qp::net
