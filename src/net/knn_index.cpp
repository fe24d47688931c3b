#include "net/knn_index.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace qp::net {

namespace {

constexpr std::size_t kLeafSize = 8;

/// Total order on neighbors: nearer first, ties by site index. A total
/// order makes the k-best set unique, so query results cannot depend on
/// tree layout or scan order.
bool better(const KnnIndex::Neighbor& a, const KnnIndex::Neighbor& b) noexcept {
  if (a.rtt_ms != b.rtt_ms) return a.rtt_ms < b.rtt_ms;
  return a.site < b.site;
}

}  // namespace

KnnIndex::KnnIndex(const LatencyEmbedding& embedding) : embedding_(&embedding) {
  const std::size_t n = embedding.size();
  order_.resize(n);
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  nodes_.resize(1);  // sentinel so child id 0 can mean "leaf".
  if (n > 0) build_node(0, n);
}

KnnIndex::KnnIndex(const LatencyMatrix& matrix) : matrix_(&matrix) {}

std::size_t KnnIndex::size() const noexcept {
  return embedding_ != nullptr ? embedding_->size() : matrix_->size();
}

std::size_t KnnIndex::build_node(std::size_t begin, std::size_t end) {
  const std::size_t id = nodes_.size();
  nodes_.emplace_back();
  const std::size_t dims = embedding_->dimensions();
  Node node;
  node.begin = begin;
  node.end = end;
  node.box_min.assign(dims, std::numeric_limits<double>::infinity());
  node.box_max.assign(dims, -std::numeric_limits<double>::infinity());
  node.min_height = std::numeric_limits<double>::infinity();
  for (std::size_t i = begin; i < end; ++i) {
    const std::size_t s = order_[i];
    const auto coord = embedding_->coordinate(s);
    for (std::size_t d = 0; d < dims; ++d) {
      node.box_min[d] = std::min(node.box_min[d], coord[d]);
      node.box_max[d] = std::max(node.box_max[d], coord[d]);
    }
    node.min_height = std::min(node.min_height, embedding_->height(s));
  }
  if (end - begin > kLeafSize) {
    std::size_t split_dim = 0;
    double widest = -1.0;
    for (std::size_t d = 0; d < dims; ++d) {
      const double width = node.box_max[d] - node.box_min[d];
      if (width > widest) {
        widest = width;
        split_dim = d;
      }
    }
    const std::size_t mid = begin + (end - begin) / 2;
    std::nth_element(order_.begin() + static_cast<std::ptrdiff_t>(begin),
                     order_.begin() + static_cast<std::ptrdiff_t>(mid),
                     order_.begin() + static_cast<std::ptrdiff_t>(end),
                     [&](std::size_t a, std::size_t b) {
                       const double ca = embedding_->coordinate(a)[split_dim];
                       const double cb = embedding_->coordinate(b)[split_dim];
                       if (ca != cb) return ca < cb;
                       return a < b;
                     });
    node.left = build_node(begin, mid);
    node.right = build_node(mid, end);
  }
  nodes_[id] = std::move(node);  // assign after recursion: emplace may reallocate.
  return id;
}

double KnnIndex::box_distance(const Node& node, const double* query) const {
  double sq = 0.0;
  const std::size_t dims = embedding_->dimensions();
  for (std::size_t d = 0; d < dims; ++d) {
    double gap = 0.0;
    if (query[d] < node.box_min[d]) {
      gap = node.box_min[d] - query[d];
    } else if (query[d] > node.box_max[d]) {
      gap = query[d] - node.box_max[d];
    }
    sq += gap * gap;
  }
  return std::sqrt(sq);
}

void KnnIndex::query_node(std::size_t node_id, std::size_t from, const double* query,
                          std::size_t k, std::vector<Neighbor>& heap) const {
  const Node& node = nodes_[node_id];
  if (node.left == 0) {
    for (std::size_t i = node.begin; i < node.end; ++i) {
      const std::size_t s = order_[i];
      if (s == from) continue;  // self was seeded at distance 0 by the caller.
      const Neighbor cand{s, embedding_->rtt(from, s)};
      if (heap.size() < k) {
        heap.push_back(cand);
        std::push_heap(heap.begin(), heap.end(), better);
      } else if (better(cand, heap.front())) {
        std::pop_heap(heap.begin(), heap.end(), better);
        heap.back() = cand;
        std::push_heap(heap.begin(), heap.end(), better);
      }
    }
    return;
  }
  // Lower bound on rtt(from, s) for any s != from in a subtree; a bound
  // strictly above the current worst cannot improve the answer (an equal
  // bound still can — a tying site with a smaller index wins, so only
  // strict excess prunes).
  const auto bound = [&](const Node& child) {
    const double raw =
        box_distance(child, query) + embedding_->height(from) + child.min_height;
    return raw > embedding_->min_rtt_ms() ? raw : embedding_->min_rtt_ms();
  };
  const double left_bound = bound(nodes_[node.left]);
  const double right_bound = bound(nodes_[node.right]);
  const std::size_t first = left_bound <= right_bound ? node.left : node.right;
  const std::size_t second = first == node.left ? node.right : node.left;
  const double first_bound = std::min(left_bound, right_bound);
  const double second_bound = std::max(left_bound, right_bound);
  if (heap.size() < k || first_bound <= heap.front().rtt_ms) {
    query_node(first, from, query, k, heap);
  }
  if (heap.size() < k || second_bound <= heap.front().rtt_ms) {
    query_node(second, from, query, k, heap);
  }
}

std::vector<KnnIndex::Neighbor> KnnIndex::nearest(std::size_t from, std::size_t k) const {
  std::vector<Neighbor> out;
  nearest(from, k, out);
  return out;
}

void KnnIndex::nearest(std::size_t from, std::size_t k, std::vector<Neighbor>& out) const {
  const std::size_t n = size();
  if (from >= n) throw std::out_of_range{"KnnIndex::nearest: site out of range"};
  out.clear();
  k = std::min(k, n);
  if (k == 0) return;
  if (matrix_ != nullptr) {
    const auto& row = matrix_->row(from);
    out.reserve(n);
    for (std::size_t s = 0; s < n; ++s) out.push_back(Neighbor{s, row[s]});
    std::partial_sort(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(k),
                      out.end(), better);
    out.resize(k);
    return;
  }
  out.reserve(k);
  out.push_back(Neighbor{from, 0.0});  // self-seed; leaves skip `from`.
  query_node(1, from, embedding_->coordinate(from).data(), k, out);
  std::sort(out.begin(), out.end(), better);
}

}  // namespace qp::net
