// Grid quorum system (Cheung–Ammar–Ahamad / Kumar–Rabinovich–Sinha): the
// universe is a k x k grid; the quorum chosen by picking (row r, column c)
// is the union of row r and column c (2k-1 elements, k^2 quorums). Any two
// quorums intersect because row r1 meets column c2.
#pragma once

#include "quorum/quorum_system.hpp"

namespace qp::quorum {

class GridQuorum final : public QuorumSystem {
 public:
  /// Requires k >= 1. Element (r, c) has index r*k + c.
  explicit GridQuorum(std::size_t k);

  [[nodiscard]] std::size_t side() const noexcept { return k_; }
  [[nodiscard]] std::size_t universe_size() const noexcept override { return k_ * k_; }
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] double quorum_count() const noexcept override;
  [[nodiscard]] Quorum best_quorum(std::span<const double> values) const override;
  [[nodiscard]] double expected_max_uniform(std::span<const double> values) const override;
  [[nodiscard]] double expected_max_uniform_scratch(
      std::span<const double> values, std::vector<double>& scratch) const override;
  [[nodiscard]] std::vector<double> uniform_load() const override;
  [[nodiscard]] double optimal_load() const noexcept override;
  [[nodiscard]] std::vector<Quorum> sample_quorums(std::size_t count,
                                                   common::Rng& rng) const override;
  void sample_quorum(common::Rng& rng, Quorum& out) const override;

 protected:
  void generate_quorums(QuorumTable& table) const override;

 private:
  /// The quorum for a (row, column) choice; quorum r * k + c of the table.
  [[nodiscard]] Quorum quorum_for(std::size_t row, std::size_t column) const;
  /// Allocation-free variant reusing `out`'s storage (sample_quorum's path).
  void quorum_for(std::size_t row, std::size_t column, Quorum& out) const;

  /// max_{u in row r u column c} values[u] for all (r, c), as a k x k table.
  [[nodiscard]] std::vector<double> quorum_maxima(std::span<const double> values) const;

  std::size_t k_;
};

}  // namespace qp::quorum
