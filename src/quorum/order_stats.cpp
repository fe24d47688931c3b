#include "quorum/order_stats.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "common/combinatorics.hpp"
#include "common/simd_kernels.hpp"

namespace qp::quorum {

std::span<const double> max_order_weights(std::size_t n, std::size_t subset_size) {
  if (subset_size == 0 || subset_size > n) {
    throw std::invalid_argument{"max_order_weights: bad subset size"};
  }
  // std::map nodes are stable, so returned spans survive later inserts.
  static std::map<std::pair<std::size_t, std::size_t>, std::vector<double>> cache;
  static std::mutex mutex;
  std::lock_guard<std::mutex> lock{mutex};
  const auto key = std::make_pair(n, subset_size);
  auto it = cache.find(key);
  if (it == cache.end()) {
    const std::vector<double>& cdf = common::binomial_ratio_row(n, subset_size);
    std::vector<double> weights(n, 0.0);
    double previous_cdf = 0.0;
    for (std::size_t i = subset_size; i <= n; ++i) {
      weights[i - 1] = cdf[i] - previous_cdf;
      previous_cdf = cdf[i];
    }
    it = cache.emplace(key, std::move(weights)).first;
  }
  return it->second;
}

double expected_max_sorted(std::span<const double> sorted_values,
                           std::size_t subset_size) {
  const std::span<const double> weights =
      max_order_weights(sorted_values.size(), subset_size);
  // Forward to the kernel over the full span so both overloads reduce in
  // the same order (the prefix weights are exactly 0, contributing exact
  // zeros to the sum).
  return expected_max_sorted(sorted_values, weights);
}

double expected_max_sorted(std::span<const double> sorted_values,
                           std::span<const double> weights) noexcept {
  // Identical value to the (values, subset_size) overload, which forwards
  // here: the extra leading terms all multiply exactly-zero weights. This
  // is THE per-client inner loop of every Majority evaluation; weighted_dot
  // sums it in a fixed two-lane order, the same bits on every build type.
  return common::weighted_dot(sorted_values, weights);
}

double expected_max_uniform_subset(std::span<const double> values,
                                   std::size_t subset_size) {
  std::vector<double> scratch;
  return expected_max_uniform_subset(values, subset_size, scratch);
}

double expected_max_uniform_subset(std::span<const double> values,
                                   std::size_t subset_size,
                                   std::vector<double>& scratch) {
  const std::size_t n = values.size();
  if (subset_size == 0 || subset_size > n) {
    throw std::invalid_argument{"expected_max_uniform_subset: bad subset size"};
  }
  scratch.assign(values.begin(), values.end());
  std::sort(scratch.begin(), scratch.end());
  return expected_max_sorted(scratch, subset_size);
}

}  // namespace qp::quorum
