// Finite-projective-plane (FPP) quorum system — the classic load-optimal
// construction (Maekawa; analyzed by Naor & Wool): the universe is the
// q^2+q+1 points of the projective plane PG(2, q) and the quorums are its
// lines. Any two lines meet in exactly one point, every line has q+1 points,
// and the uniform strategy achieves the optimal load (q+1)/(q^2+q+1) ~
// 1/sqrt(n).
//
// Not evaluated in the paper; included as an extension point on the
// quorum-size/load spectrum between Grid (2k-1 of k^2) and Majorities.
#pragma once

#include "quorum/quorum_system.hpp"

namespace qp::quorum {

class FppQuorum final : public QuorumSystem {
 public:
  /// Builds PG(2, order) over GF(order). `order` must be a prime in [2, 31]
  /// (prime powers would need field arithmetic beyond mod-p).
  explicit FppQuorum(std::size_t order);

  [[nodiscard]] std::size_t order() const noexcept { return order_; }
  [[nodiscard]] std::size_t universe_size() const noexcept override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] double quorum_count() const noexcept override;
  [[nodiscard]] double optimal_load() const override;
  // best_quorum, expected_max_uniform, uniform_load and sample_quorums are
  // the base class's scans of the quorum table.

 protected:
  /// Line l is the points whose canonical triple is orthogonal to triple l.
  void generate_quorums(QuorumTable& table) const override;

 private:
  std::size_t order_;
};

}  // namespace qp::quorum
