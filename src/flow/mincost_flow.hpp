// Minimum-cost maximum-flow on directed graphs, via successive shortest
// paths with Johnson potentials (Bellman–Ford bootstrap so negative edge
// costs are accepted; Dijkstra thereafter).
//
// Used by the Shmoys–Tardos rounding step of the many-to-one placement
// algorithm (core/manytoone).
#pragma once

#include <cstddef>
#include <vector>

namespace qp::flow {

class MinCostFlow {
 public:
  explicit MinCostFlow(std::size_t node_count);

  /// Adds a directed edge; returns an id usable with flow_on(). Capacity
  /// must be >= 0; cost may be negative (no negative cycles allowed).
  std::size_t add_edge(std::size_t from, std::size_t to, double capacity, double cost);

  struct Result {
    double flow = 0.0;
    double cost = 0.0;
  };

  /// Sends up to `max_flow` units (default: as much as possible) from source
  /// to sink at minimum cost. May be called once per instance.
  [[nodiscard]] Result solve(std::size_t source, std::size_t sink,
                             double max_flow = kUnlimited);

  /// Flow carried by the edge returned from add_edge (valid after solve()).
  [[nodiscard]] double flow_on(std::size_t edge_id) const;

  static constexpr double kUnlimited = 1e300;

 private:
  struct Arc {
    std::size_t to = 0;
    std::size_t reverse = 0;  // Index of the reverse arc in adjacency_[to].
    double capacity = 0.0;
    double cost = 0.0;
  };

  void check_node(std::size_t v) const;
  bool bellman_ford(std::size_t source, std::vector<double>& potential) const;

  std::vector<std::vector<Arc>> adjacency_;
  // Maps public edge ids to (node, arc index).
  std::vector<std::pair<std::size_t, std::size_t>> edge_refs_;
  std::vector<double> original_capacity_;
  bool solved_ = false;
};

}  // namespace qp::flow
