#include "quorum/fpp.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace qp::quorum {

namespace {

bool is_prime(std::size_t p) {
  if (p < 2) return false;
  for (std::size_t d = 2; d * d <= p; ++d) {
    if (p % d == 0) return false;
  }
  return true;
}

using Triple = std::array<std::size_t, 3>;

/// Canonical representatives of the projective points/lines of PG(2, p):
/// (1, a, b), (0, 1, a), (0, 0, 1) — exactly p^2 + p + 1 of them.
std::vector<Triple> canonical_triples(std::size_t p) {
  std::vector<Triple> triples;
  triples.reserve(p * p + p + 1);
  for (std::size_t a = 0; a < p; ++a) {
    for (std::size_t b = 0; b < p; ++b) triples.push_back({1, a, b});
  }
  for (std::size_t a = 0; a < p; ++a) triples.push_back({0, 1, a});
  triples.push_back({0, 0, 1});
  return triples;
}

}  // namespace

FppQuorum::FppQuorum(std::size_t order) : order_(order) {
  if (!is_prime(order_) || order_ > 31) {
    throw std::invalid_argument{"FppQuorum: order must be a prime in [2, 31]"};
  }
}

std::size_t FppQuorum::universe_size() const noexcept {
  return order_ * order_ + order_ + 1;
}

std::string FppQuorum::name() const { return "FPP(q=" + std::to_string(order_) + ")"; }

double FppQuorum::quorum_count() const noexcept {
  return static_cast<double>(universe_size());  // The plane is self-dual.
}

void FppQuorum::generate_quorums(QuorumTable& table) const {
  const std::vector<Triple> points = canonical_triples(order_);
  Quorum line;
  for (const Triple& coords : points) {  // Self-dual: lines share the points' triples.
    line.clear();
    for (std::size_t pt = 0; pt < points.size(); ++pt) {
      const std::size_t dot =
          coords[0] * points[pt][0] + coords[1] * points[pt][1] + coords[2] * points[pt][2];
      if (dot % order_ == 0) line.push_back(pt);
    }
    table.add(line);
  }
}

double FppQuorum::optimal_load() const {
  return static_cast<double>(order_ + 1) / static_cast<double>(universe_size());
}

}  // namespace qp::quorum
