// Majority (threshold) quorum systems: every q-subset of an n-element
// universe is a quorum, with q > n/2 so any two quorums intersect.
//
// The paper evaluates three families parameterized by the fault threshold t:
//   (t+1, 2t+1)   — crash-tolerant majority (Gifford / Thomas),
//   (2t+1, 3t+1)  — Byzantine-safe majority (BFT-style),
//   (4t+1, 5t+1)  — the Q/U threshold.
// Quorum counts are astronomically large, so everything is analytic: the
// best quorum is the q smallest values, and the balanced-strategy maximum
// follows the order statistics in order_stats.h.
#pragma once

#include "quorum/quorum_system.hpp"

namespace qp::quorum {

class MajorityQuorum final : public QuorumSystem {
 public:
  /// Requires 0 < q <= n and 2q > n (otherwise two quorums could be disjoint).
  MajorityQuorum(std::size_t universe_size, std::size_t quorum_size);

  [[nodiscard]] std::size_t universe_size() const noexcept override { return n_; }
  [[nodiscard]] std::size_t quorum_size() const noexcept { return q_; }
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] double quorum_count() const noexcept override;
  [[nodiscard]] Quorum best_quorum(std::span<const double> values) const override;
  [[nodiscard]] double expected_max_uniform(std::span<const double> values) const override;
  [[nodiscard]] double expected_max_uniform_scratch(
      std::span<const double> values, std::vector<double>& scratch) const override;
  [[nodiscard]] std::span<const double> order_stat_weights() const override;
  [[nodiscard]] std::vector<double> uniform_load() const override;
  [[nodiscard]] double optimal_load() const noexcept override;
  [[nodiscard]] std::vector<Quorum> sample_quorums(std::size_t count,
                                                   common::Rng& rng) const override;
  void sample_quorum(common::Rng& rng, Quorum& out) const override;
  /// Hypergeometric closed form: 1 - C(n-|S|, q) / C(n, q).
  [[nodiscard]] double uniform_touch_probability(
      std::span<const std::size_t> elements) const override;

 protected:
  /// Every q-subset, in lexicographic order.
  void generate_quorums(QuorumTable& table) const override;

 private:
  std::size_t n_;
  std::size_t q_;
  /// Cached order-statistic weights (program-lifetime storage), resolved
  /// once at construction so the evaluation hot path never takes the
  /// weight-cache lock.
  std::span<const double> weights_;
};

/// The paper's three Majority families, by fault threshold t >= 1.
enum class MajorityFamily {
  SimpleMajority,    // (t+1,  2t+1)
  ByzantineMajority, // (2t+1, 3t+1)
  QuThreshold,       // (4t+1, 5t+1)
};

[[nodiscard]] std::string family_name(MajorityFamily family);

/// Universe size n for the family at threshold t.
[[nodiscard]] std::size_t family_universe(MajorityFamily family, std::size_t t);

/// Builds the family instance for threshold t (t >= 1).
[[nodiscard]] MajorityQuorum make_majority(MajorityFamily family, std::size_t t);

}  // namespace qp::quorum
