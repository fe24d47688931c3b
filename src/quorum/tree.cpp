#include "quorum/tree.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace qp::quorum {

namespace {

std::size_t left_child(std::size_t v) { return 2 * v + 1; }
std::size_t right_child(std::size_t v) { return 2 * v + 2; }

Quorum merged(const Quorum& a, const Quorum& b) {
  Quorum out;
  out.reserve(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

Quorum with_root(std::size_t root, const Quorum& sub) {
  Quorum out;
  out.reserve(sub.size() + 1);
  out.push_back(root);
  out.insert(out.end(), sub.begin(), sub.end());
  std::sort(out.begin(), out.end());
  return out;
}

/// Every quorum of the complete tree on n heap-indexed nodes, by recursion
/// from the root: {v} + left's, {v} + right's, then left's x right's.
std::vector<Quorum> enumerate_tree(std::size_t n) {
  auto enumerate = [&](auto&& self, std::size_t v) -> std::vector<Quorum> {
    if (left_child(v) >= n) return {Quorum{v}};
    const std::vector<Quorum> left = self(self, left_child(v));
    const std::vector<Quorum> right = self(self, right_child(v));
    std::vector<Quorum> result;
    result.reserve(left.size() + right.size() + left.size() * right.size());
    for (const Quorum& q : left) result.push_back(with_root(v, q));
    for (const Quorum& q : right) result.push_back(with_root(v, q));
    for (const Quorum& a : left) {
      for (const Quorum& b : right) result.push_back(merged(a, b));
    }
    return result;
  };
  return enumerate(enumerate, 0);
}

}  // namespace

TreeQuorum::TreeQuorum(std::size_t height) : height_(height) {
  if (height_ > 4) {
    throw std::invalid_argument{"TreeQuorum: heights above 4 are intractable to enumerate"};
  }
  const std::vector<Quorum> quorums = enumerate_tree(universe_size());
  quorum_start_.reserve(quorums.size() + 1);
  quorum_start_.push_back(0);
  for (const Quorum& quorum : quorums) {
    for (std::size_t u : quorum) elements_.push_back(static_cast<std::uint8_t>(u));
    quorum_start_.push_back(static_cast<std::uint32_t>(elements_.size()));
  }
}

std::size_t TreeQuorum::universe_size() const noexcept {
  return (std::size_t{2} << height_) - 1;  // 2^(h+1) - 1.
}

std::string TreeQuorum::name() const { return "Tree(h=" + std::to_string(height_) + ")"; }

double TreeQuorum::subtree_count(std::size_t depth) const noexcept {
  // C(h) = 1; C(d) = 2 C(d+1) + C(d+1)^2.
  double count = 1.0;
  for (std::size_t d = height_; d > depth; --d) {
    count = 2.0 * count + count * count;
  }
  return count;
}

double TreeQuorum::quorum_count() const noexcept { return subtree_count(0); }

std::vector<Quorum> TreeQuorum::enumerate_quorums(std::size_t limit) const {
  if (!enumerable(limit)) throw std::domain_error{name() + ": enumeration limit too low"};
  std::vector<Quorum> result;
  result.reserve(quorum_start_.size() - 1);
  for (std::size_t q = 0; q + 1 < quorum_start_.size(); ++q) {
    result.emplace_back(elements_.begin() + quorum_start_[q],
                        elements_.begin() + quorum_start_[q + 1]);
  }
  return result;
}

Quorum TreeQuorum::best_quorum(std::span<const double> values) const {
  check_values_size(*this, values);
  const std::size_t n = universe_size();
  struct Best {
    double value = 0.0;
    Quorum quorum;
  };
  auto solve = [&](auto&& self, std::size_t v) -> Best {
    if (left_child(v) >= n) return Best{values[v], Quorum{v}};
    const Best left = self(self, left_child(v));
    const Best right = self(self, right_child(v));
    const double via_left = std::max(values[v], left.value);
    const double via_right = std::max(values[v], right.value);
    const double via_both = std::max(left.value, right.value);
    if (via_both <= via_left && via_both <= via_right) {
      return Best{via_both, merged(left.quorum, right.quorum)};
    }
    if (via_left <= via_right) return Best{via_left, with_root(v, left.quorum)};
    return Best{via_right, with_root(v, right.quorum)};
  };
  return solve(solve, 0).quorum;
}

double TreeQuorum::expected_max_uniform(std::span<const double> values) const {
  check_values_size(*this, values);
  const std::size_t count = quorum_start_.size() - 1;
  double total = 0.0;
  for (std::size_t q = 0; q < count; ++q) {
    double worst = 0.0;
    for (std::size_t k = quorum_start_[q]; k < quorum_start_[q + 1]; ++k) {
      worst = std::max(worst, values[elements_[k]]);
    }
    total += worst;
  }
  return total / static_cast<double>(count);
}

std::vector<double> TreeQuorum::uniform_load() const {
  std::vector<double> load(universe_size(), 0.0);
  for (std::uint8_t u : elements_) load[u] += 1.0;
  for (double& l : load) l /= static_cast<double>(quorum_start_.size() - 1);
  return load;
}

double TreeQuorum::optimal_load() const {
  const std::vector<double> load = uniform_load();
  return *std::max_element(load.begin(), load.end());
}

std::vector<Quorum> TreeQuorum::sample_quorums(std::size_t count, common::Rng& rng) const {
  const std::size_t n = universe_size();
  auto sample = [&](auto&& self, std::size_t v) -> Quorum {
    if (left_child(v) >= n) return Quorum{v};
    // Choose among the three recursive options proportionally to how many
    // quorums each contributes, so the overall draw is uniform. Children of
    // a node at depth d sit at depth d+1.
    std::size_t depth = 0;
    for (std::size_t w = v; w > 0; w = (w - 1) / 2) ++depth;
    const double c = subtree_count(depth + 1);
    const double weights[3] = {c, c, c * c};
    const std::size_t pick = rng.weighted_index(weights);
    if (pick == 0) return with_root(v, self(self, left_child(v)));
    if (pick == 1) return with_root(v, self(self, right_child(v)));
    return merged(self(self, left_child(v)), self(self, right_child(v)));
  };
  std::vector<Quorum> result;
  result.reserve(count);
  for (std::size_t i = 0; i < count; ++i) result.push_back(sample(sample, 0));
  return result;
}

}  // namespace qp::quorum
