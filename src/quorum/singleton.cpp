#include "quorum/singleton.hpp"

namespace qp::quorum {

void SingletonQuorum::generate_quorums(QuorumTable& table) const {
  table.add(Quorum{0});
}

Quorum SingletonQuorum::best_quorum(std::span<const double> values) const {
  check_values_size(*this, values);
  return Quorum{0};
}

double SingletonQuorum::expected_max_uniform(std::span<const double> values) const {
  check_values_size(*this, values);
  return values[0];
}

std::span<const double> SingletonQuorum::order_stat_weights() const {
  static const std::vector<double> weights{1.0};
  return weights;
}

std::vector<Quorum> SingletonQuorum::sample_quorums(std::size_t count,
                                                    common::Rng&) const {
  return std::vector<Quorum>(count, Quorum{0});
}

}  // namespace qp::quorum
