#include "quorum/grid.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/simd_kernels.hpp"

namespace qp::quorum {

GridQuorum::GridQuorum(std::size_t k) : k_(k) {
  if (k_ == 0) throw std::invalid_argument{"GridQuorum: k must be >= 1"};
}

std::string GridQuorum::name() const {
  return "Grid(" + std::to_string(k_) + "x" + std::to_string(k_) + ")";
}

double GridQuorum::quorum_count() const noexcept {
  return static_cast<double>(k_) * static_cast<double>(k_);
}

Quorum GridQuorum::quorum_for(std::size_t row, std::size_t column) const {
  Quorum quorum;
  quorum_for(row, column, quorum);
  return quorum;
}

void GridQuorum::quorum_for(std::size_t row, std::size_t column, Quorum& out) const {
  if (row >= k_ || column >= k_) throw std::out_of_range{"GridQuorum::quorum_for"};
  out.clear();
  out.reserve(2 * k_ - 1);
  for (std::size_t c = 0; c < k_; ++c) out.push_back(row * k_ + c);
  for (std::size_t r = 0; r < k_; ++r) {
    if (r != row) out.push_back(r * k_ + column);
  }
  std::sort(out.begin(), out.end());
}

void GridQuorum::generate_quorums(QuorumTable& table) const {
  Quorum quorum;
  for (std::size_t r = 0; r < k_; ++r) {
    for (std::size_t c = 0; c < k_; ++c) {
      quorum_for(r, c, quorum);
      table.add(quorum);
    }
  }
}

std::vector<double> GridQuorum::quorum_maxima(std::span<const double> values) const {
  check_values_size(*this, values);
  std::vector<double> row_max(k_, -std::numeric_limits<double>::infinity());
  std::vector<double> col_max(k_, -std::numeric_limits<double>::infinity());
  for (std::size_t r = 0; r < k_; ++r) {
    const std::span<const double> row = values.subspan(r * k_, k_);
    row_max[r] = common::max_reduce(row);
    common::max_accumulate(row, col_max.data());
  }
  std::vector<double> result(k_ * k_, 0.0);
  for (std::size_t r = 0; r < k_; ++r) {
    for (std::size_t c = 0; c < k_; ++c) {
      result[r * k_ + c] = std::max(row_max[r], col_max[c]);
    }
  }
  return result;
}

Quorum GridQuorum::best_quorum(std::span<const double> values) const {
  const std::vector<double> maxima = quorum_maxima(values);
  std::size_t best = 0;
  for (std::size_t i = 1; i < maxima.size(); ++i) {
    if (maxima[i] < maxima[best]) best = i;
  }
  return quorum_for(best / k_, best % k_);
}

double GridQuorum::expected_max_uniform(std::span<const double> values) const {
  std::vector<double> scratch;
  return expected_max_uniform_scratch(values, scratch);
}

double GridQuorum::expected_max_uniform_scratch(std::span<const double> values,
                                                std::vector<double>& scratch) const {
  check_values_size(*this, values);
  // scratch holds row maxima in [0, k) and column maxima in [k, 2k). The
  // row-at-a-time structure keeps every inner loop a contiguous
  // common/simd_kernels call; max_with_bound_sum sums each row in its fixed
  // two-lane order.
  scratch.assign(2 * k_, -std::numeric_limits<double>::infinity());
  double* row_max = scratch.data();
  double* col_max = scratch.data() + k_;
  for (std::size_t r = 0; r < k_; ++r) {
    const std::span<const double> row = values.subspan(r * k_, k_);
    row_max[r] = common::max_reduce(row);
    common::max_accumulate(row, col_max);
  }
  double sum = 0.0;
  const std::span<const double> cols{col_max, k_};
  for (std::size_t r = 0; r < k_; ++r) {
    sum += common::max_with_bound_sum(row_max[r], cols);
  }
  return sum / static_cast<double>(universe_size());
}

std::vector<double> GridQuorum::uniform_load() const {
  // Element (r, c) is in quorum (r', c') iff r == r' or c == c':
  // k + k - 1 of the k^2 quorums.
  const double load = static_cast<double>(2 * k_ - 1) /
                      (static_cast<double>(k_) * static_cast<double>(k_));
  return std::vector<double>(k_ * k_, load);
}

double GridQuorum::optimal_load() const noexcept {
  return static_cast<double>(2 * k_ - 1) /
         (static_cast<double>(k_) * static_cast<double>(k_));
}

std::vector<Quorum> GridQuorum::sample_quorums(std::size_t count, common::Rng& rng) const {
  std::vector<Quorum> result;
  result.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t r = static_cast<std::size_t>(rng.below(k_));
    const std::size_t c = static_cast<std::size_t>(rng.below(k_));
    result.push_back(quorum_for(r, c));
  }
  return result;
}

void GridQuorum::sample_quorum(common::Rng& rng, Quorum& out) const {
  const std::size_t row = static_cast<std::size_t>(rng.below(k_));
  const std::size_t column = static_cast<std::size_t>(rng.below(k_));
  quorum_for(row, column, out);
}

}  // namespace qp::quorum
