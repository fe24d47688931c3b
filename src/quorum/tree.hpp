// Tree quorum system (Agrawal & El Abbadi): the universe is a complete
// binary tree of height h (n = 2^(h+1) - 1 elements). A quorum is obtained
// recursively: for a subtree rooted at v,
//     TQ(v) = {v} u TQ(left)    |  {v} u TQ(right)   |  TQ(left) u TQ(right)
// and a single leaf's only quorum is itself. Any two quorums intersect.
//
// This system is not part of the paper's evaluation; it is included as an
// extension because it offers small quorums (as small as h+1, a root-to-leaf
// path) with graceful degradation, making it an interesting extra point on
// the quorum-size/load spectrum the paper explores.
#pragma once

#include "quorum/quorum_system.hpp"

namespace qp::quorum {

class TreeQuorum final : public QuorumSystem {
 public:
  /// Complete binary tree of the given height; height 0 is a single node.
  /// Heights above 4 (n = 63, ~4.3e9 quorums) are rejected: enumeration and
  /// uniform-load bookkeeping would be intractable. The expected maximum,
  /// the uniform load and sampling read the quorum table (65535 quorums at
  /// height 4).
  explicit TreeQuorum(std::size_t height);

  [[nodiscard]] std::size_t height() const noexcept { return height_; }
  [[nodiscard]] std::size_t universe_size() const noexcept override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] double quorum_count() const noexcept override;
  /// Exact via dynamic programming over the tree (no enumeration).
  [[nodiscard]] Quorum best_quorum(std::span<const double> values) const override;
  /// The busiest element's uniform-strategy load. Counter-intuitively this
  /// is NOT the root: the "both children" branch contributes quadratically
  /// many quorums, so deeper elements appear in a larger fraction.
  [[nodiscard]] double optimal_load() const override;

 protected:
  /// By recursion from the root: for each node, {v} + left's quorums,
  /// {v} + right's, then left's x right's.
  void generate_quorums(QuorumTable& table) const override;

 private:
  std::size_t height_;
};

}  // namespace qp::quorum
