// KnnIndex: k-nearest-site queries against a LatencySpace without touching
// all n pairs.
//
// Over a LatencyEmbedding the index is a kd-tree on the coordinate part with
// one extra twist for the height model: rtt(q, s) = ||x_q - x_s|| + h_q +
// h_s, so each subtree stores min height alongside its bounding box, and the
// pruning bound is boxdist(x_q, box) + h_q + min_height — a true lower bound
// on any rtt in the subtree (the min-RTT floor is monotone, so flooring the
// bound keeps it valid). Build is O(n log n), queries O(log n + k) for
// clustered inputs.
//
// Over a dense LatencyMatrix the "index" is a brute-force row scan — same
// results, same tie-breaking, no tree; it exists so callers can be written
// against one API in both regimes (and so parity tests can compare the tree
// against it).
//
// Determinism: equal-RTT ties order by site index everywhere (matching
// net::ball), queries allocate nothing on the steady-state path
// when the caller reuses the out-vectors, and results are identical doubles
// for any thread count (queries are const and lock-free).
#pragma once

#include <cstddef>
#include <vector>

#include "net/embedding.hpp"
#include "net/latency_matrix.hpp"

namespace qp::net {

class KnnIndex {
 public:
  struct Neighbor {
    std::size_t site = 0;
    double rtt_ms = 0.0;
  };

  /// kd-tree over the embedding's coordinates. The embedding must outlive
  /// the index.
  explicit KnnIndex(const LatencyEmbedding& embedding);
  /// Brute-force reference over a dense matrix. The matrix must outlive the
  /// index.
  explicit KnnIndex(const LatencyMatrix& matrix);

  [[nodiscard]] std::size_t size() const noexcept;

  /// The min(k, n) sites nearest `from` by RTT, ascending (ties by site
  /// index); `from` itself is included at distance 0, matching net::ball.
  /// Throws std::out_of_range on a bad site.
  [[nodiscard]] std::vector<Neighbor> nearest(std::size_t from, std::size_t k) const;
  void nearest(std::size_t from, std::size_t k, std::vector<Neighbor>& out) const;

 private:
  struct Node {
    std::size_t begin = 0;     // leaf: [begin, end) into order_.
    std::size_t end = 0;
    std::size_t left = 0;      // internal: child node ids (0 = leaf).
    std::size_t right = 0;
    double min_height = 0.0;   // min h_s over the subtree's sites.
    std::vector<double> box_min;
    std::vector<double> box_max;
  };

  std::size_t build_node(std::size_t begin, std::size_t end);
  [[nodiscard]] double box_distance(const Node& node, const double* query) const;
  void query_node(std::size_t node_id, std::size_t from, const double* query,
                  std::size_t k, std::vector<Neighbor>& heap) const;

  const LatencyEmbedding* embedding_ = nullptr;  // exactly one backend is set
  const LatencyMatrix* matrix_ = nullptr;
  std::vector<std::size_t> order_;  // site ids, permuted into leaf ranges.
  std::vector<Node> nodes_;         // nodes_[0] unused; root is nodes_[1].
};

}  // namespace qp::net
