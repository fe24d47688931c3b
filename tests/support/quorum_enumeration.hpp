// The quorum lists of the built-in systems, enumerated independently of
// QuorumSystem::quorums(): the vector-of-vectors enumerations the systems
// carried before the shared QuorumTable, kept as the order oracle for it.
// Also the test-side conversions between tables and quorum lists.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/combinatorics.hpp"
#include "quorum/fpp.hpp"
#include "quorum/grid.hpp"
#include "quorum/majority.hpp"
#include "quorum/quorum_system.hpp"
#include "quorum/singleton.hpp"
#include "quorum/tree.hpp"

namespace qp::quorum::test_support {

/// All k-subsets of {0..n-1} in lexicographic order. Throws if C(n,k) > limit
/// (guards test oracles against accidental combinatorial explosions).
[[nodiscard]] inline std::vector<std::vector<std::size_t>> all_subsets(
    std::size_t n, std::size_t k, std::size_t limit = 2'000'000) {
  if (k > n) return {};
  const double count = common::binomial(n, k);
  if (count > static_cast<double>(limit)) {
    throw std::invalid_argument{"all_subsets: C(n,k) exceeds limit"};
  }
  std::vector<std::vector<std::size_t>> result;
  result.reserve(static_cast<std::size_t>(count));
  std::vector<std::size_t> current(k);
  for (std::size_t i = 0; i < k; ++i) current[i] = i;
  for (;;) {
    result.push_back(current);
    // Advance to the next k-subset in lexicographic order.
    std::size_t i = k;
    while (i > 0 && current[i - 1] == n - k + i - 1) --i;
    if (i == 0) break;
    ++current[i - 1];
    for (std::size_t j = i; j < k; ++j) current[j] = current[j - 1] + 1;
  }
  return result;
}

/// Grid(k): quorum r * k + c is row r plus column c, sorted.
[[nodiscard]] inline std::vector<Quorum> grid_quorums(std::size_t k) {
  std::vector<Quorum> quorums;
  for (std::size_t row = 0; row < k; ++row) {
    for (std::size_t column = 0; column < k; ++column) {
      Quorum quorum;
      for (std::size_t c = 0; c < k; ++c) quorum.push_back(row * k + c);
      for (std::size_t r = 0; r < k; ++r) {
        if (r != row) quorum.push_back(r * k + column);
      }
      std::sort(quorum.begin(), quorum.end());
      quorums.push_back(std::move(quorum));
    }
  }
  return quorums;
}

/// FPP(q): line l holds the points whose canonical triple — (1, a, b),
/// (0, 1, a), (0, 0, 1) — is orthogonal mod q to triple l.
[[nodiscard]] inline std::vector<Quorum> fpp_quorums(std::size_t p) {
  std::vector<std::array<std::size_t, 3>> triples;
  for (std::size_t a = 0; a < p; ++a) {
    for (std::size_t b = 0; b < p; ++b) triples.push_back({1, a, b});
  }
  for (std::size_t a = 0; a < p; ++a) triples.push_back({0, 1, a});
  triples.push_back({0, 0, 1});
  std::vector<Quorum> lines(triples.size());
  for (std::size_t l = 0; l < triples.size(); ++l) {
    for (std::size_t pt = 0; pt < triples.size(); ++pt) {
      const std::size_t dot = triples[l][0] * triples[pt][0] + triples[l][1] * triples[pt][1] +
                              triples[l][2] * triples[pt][2];
      if (dot % p == 0) lines[l].push_back(pt);
    }
  }
  return lines;
}

/// Tree(h), by recursion from the root: {v} + left's, {v} + right's, then
/// left's x right's.
[[nodiscard]] inline std::vector<Quorum> tree_quorums(std::size_t height) {
  const std::size_t n = (std::size_t{2} << height) - 1;
  auto enumerate = [n](auto&& self, std::size_t v) -> std::vector<Quorum> {
    if (2 * v + 1 >= n) return {Quorum{v}};
    const std::vector<Quorum> left = self(self, 2 * v + 1);
    const std::vector<Quorum> right = self(self, 2 * v + 2);
    std::vector<Quorum> result;
    for (const Quorum& q : left) {
      Quorum with_root = q;
      with_root.push_back(v);
      std::sort(with_root.begin(), with_root.end());
      result.push_back(std::move(with_root));
    }
    for (const Quorum& q : right) {
      Quorum with_root = q;
      with_root.push_back(v);
      std::sort(with_root.begin(), with_root.end());
      result.push_back(std::move(with_root));
    }
    for (const Quorum& a : left) {
      for (const Quorum& b : right) {
        Quorum merged;
        std::merge(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(merged));
        result.push_back(std::move(merged));
      }
    }
    return result;
  };
  return enumerate(enumerate, 0);
}

/// The oracle list of any built-in system, dispatched on its type.
[[nodiscard]] inline std::vector<Quorum> oracle_quorums(const QuorumSystem& system) {
  if (dynamic_cast<const SingletonQuorum*>(&system) != nullptr) return {Quorum{0}};
  if (const auto* majority = dynamic_cast<const MajorityQuorum*>(&system)) {
    return all_subsets(majority->universe_size(), majority->quorum_size());
  }
  if (const auto* grid = dynamic_cast<const GridQuorum*>(&system)) {
    return grid_quorums(grid->side());
  }
  if (const auto* fpp = dynamic_cast<const FppQuorum*>(&system)) return fpp_quorums(fpp->order());
  if (const auto* tree = dynamic_cast<const TreeQuorum*>(&system)) {
    return tree_quorums(tree->height());
  }
  throw std::invalid_argument{"oracle_quorums: not a built-in system"};
}

/// A table's quorums as a list of sorted element vectors.
[[nodiscard]] inline std::vector<Quorum> quorum_list(const QuorumTable& table) {
  std::vector<Quorum> quorums;
  quorums.reserve(table.size());
  for (std::size_t q = 0; q < table.size(); ++q) {
    quorums.emplace_back(table[q].begin(), table[q].end());
  }
  return quorums;
}

/// The system's table, as a list.
[[nodiscard]] inline std::vector<Quorum> quorum_list(const QuorumSystem& system) {
  return quorum_list(system.quorums());
}

/// A system over an explicit quorum list, for hand-built tables: every
/// capability but the optimal load is the base class's scan of its table.
class ListQuorumSystem final : public QuorumSystem {
 public:
  ListQuorumSystem(std::size_t universe_size, std::vector<Quorum> quorums)
      : n_(universe_size), quorums_(std::move(quorums)) {}
  [[nodiscard]] std::size_t universe_size() const noexcept override { return n_; }
  [[nodiscard]] std::string name() const override { return "List"; }
  [[nodiscard]] double quorum_count() const noexcept override {
    return static_cast<double>(quorums_.size());
  }
  [[nodiscard]] double optimal_load() const override {
    const std::vector<double> load = uniform_load();
    return *std::max_element(load.begin(), load.end());
  }

 protected:
  void generate_quorums(QuorumTable& table) const override {
    for (const Quorum& quorum : quorums_) table.add(quorum);
  }

 private:
  std::size_t n_;
  std::vector<Quorum> quorums_;
};

/// The table of `quorums` over `universe_size` elements; it outlives the
/// system that built it.
[[nodiscard]] inline std::shared_ptr<const QuorumTable> make_table(
    std::size_t universe_size, std::vector<Quorum> quorums) {
  return ListQuorumSystem{universe_size, std::move(quorums)}.shared_quorums();
}

}  // namespace qp::quorum::test_support
