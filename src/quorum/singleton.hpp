// The singleton quorum system: one element, one quorum. Placed on the graph
// median it is Lin's 2-approximation for network delay (§4.1.2) and the
// baseline every figure compares against.
#pragma once

#include "quorum/quorum_system.hpp"

namespace qp::quorum {

class SingletonQuorum final : public QuorumSystem {
 public:
  SingletonQuorum() = default;

  [[nodiscard]] std::size_t universe_size() const noexcept override { return 1; }
  [[nodiscard]] std::string name() const override { return "Singleton"; }
  [[nodiscard]] double quorum_count() const noexcept override { return 1.0; }
  [[nodiscard]] Quorum best_quorum(std::span<const double> values) const override;
  [[nodiscard]] double expected_max_uniform(std::span<const double> values) const override;
  [[nodiscard]] std::span<const double> order_stat_weights() const override;
  [[nodiscard]] double optimal_load() const noexcept override { return 1.0; }
  [[nodiscard]] std::vector<Quorum> sample_quorums(std::size_t count,
                                                   common::Rng& rng) const override;

 protected:
  void generate_quorums(QuorumTable& table) const override;
};

}  // namespace qp::quorum
