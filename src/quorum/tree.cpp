#include "quorum/tree.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
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

}  // namespace

TreeQuorum::TreeQuorum(std::size_t height) : height_(height) {
  if (height_ > 4) {
    throw std::invalid_argument{"TreeQuorum: heights above 4 are intractable to enumerate"};
  }
}

std::size_t TreeQuorum::universe_size() const noexcept {
  return (std::size_t{2} << height_) - 1;  // 2^(h+1) - 1.
}

std::string TreeQuorum::name() const { return "Tree(h=" + std::to_string(height_) + ")"; }

double TreeQuorum::quorum_count() const noexcept {
  // Per subtree, by depth d: C(h) = 1; C(d) = 2 C(d+1) + C(d+1)^2.
  double count = 1.0;
  for (std::size_t d = height_; d > 0; --d) count = 2.0 * count + count * count;
  return count;
}

void TreeQuorum::generate_quorums(QuorumTable& table) const {
  // Each quorum of subtree v is built onto `members`, then handed to `next`,
  // which completes the quorums of the enclosing subtrees; the left x right
  // product nests the right subtree's walk inside the left's.
  const std::size_t n = universe_size();
  Quorum members;
  Quorum sorted;
  using Next = std::function<void()>;
  const auto walk = [&](const auto& self, std::size_t v, const Next& next) -> void {
    if (left_child(v) >= n) {
      members.push_back(v);
      next();
      members.pop_back();
      return;
    }
    members.push_back(v);
    self(self, left_child(v), next);
    self(self, right_child(v), next);
    members.pop_back();
    self(self, left_child(v), [&] { self(self, right_child(v), next); });
  };
  walk(walk, 0, [&] {
    sorted = members;
    std::sort(sorted.begin(), sorted.end());
    table.add(sorted);
  });
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

double TreeQuorum::optimal_load() const {
  const std::vector<double> load = uniform_load();
  return *std::max_element(load.begin(), load.end());
}

}  // namespace qp::quorum
