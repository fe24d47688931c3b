// Quorum-system abstraction (§4 "Quorum placement" / "Load").
//
// A quorum system over a universe U = {0..n-1} is a collection of pairwise
// intersecting subsets. The placement/strategy algorithms need four
// capabilities from a system, each of which concrete systems provide either
// analytically or by enumeration:
//   * best_quorum(x)           — argmin_Q max_{u in Q} x_u (the "closest
//                                 quorum" when x is a distance vector);
//   * expected_max_uniform(x)  — E[max_{u in Q} x_u] under the uniform
//                                 ("balanced") access strategy;
//   * uniform_load()           — load(u) induced by the uniform strategy;
//   * quorums()                — the explicit QuorumTable when tractable,
//                                 built once per system, read by the LPs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace qp::quorum {

/// A quorum: sorted, distinct element indices in [0, universe_size).
using Quorum = std::vector<std::size_t>;

/// The most quorums quorums() enumerates. Every reader of the table shares
/// it, so a quorum distribution from one indexes another's quorum list.
inline constexpr std::size_t kEnumerationLimit = 100'000;

/// A system's explicit quorum list as a compressed sparse row table: the
/// members of every quorum in enumeration order, plus the transpose, the
/// element -> quorum incidence. Only QuorumSystem::quorums() builds one.
class QuorumTable {
 public:
  /// Appends a quorum of sorted, distinct elements (the generators' call);
  /// std::out_of_range for an element >= universe_size().
  void add(std::span<const std::size_t> quorum);

  [[nodiscard]] std::size_t universe_size() const noexcept { return universe_size_; }
  [[nodiscard]] std::size_t size() const noexcept { return offsets_.size() - 1; }
  /// Members of quorum q, ascending.
  [[nodiscard]] std::span<const std::uint32_t> operator[](std::size_t q) const {
    return {members_.data() + offsets_[q], members_.data() + offsets_[q + 1]};
  }
  /// Ids of the quorums containing element u, ascending.
  [[nodiscard]] std::span<const std::uint32_t> incident(std::size_t u) const {
    return {incident_.data() + incident_offsets_[u],
            incident_.data() + incident_offsets_[u + 1]};
  }

 private:
  friend class QuorumSystem;
  explicit QuorumTable(std::size_t universe_size);
  /// Builds the incidence lists after the last add.
  void finish();

  std::size_t universe_size_;
  std::vector<std::size_t> offsets_{0};
  std::vector<std::uint32_t> members_;
  std::vector<std::size_t> incident_offsets_;
  std::vector<std::uint32_t> incident_;
};

class QuorumSystem {
 public:
  QuorumSystem();
  virtual ~QuorumSystem() = default;

  [[nodiscard]] virtual std::size_t universe_size() const noexcept = 0;
  [[nodiscard]] virtual std::string name() const = 0;

  /// Number of quorums, as a double because Majority counts overflow.
  [[nodiscard]] virtual double quorum_count() const noexcept = 0;

  /// True when the system has at most kEnumerationLimit quorums.
  [[nodiscard]] bool enumerable() const noexcept {
    return quorum_count() <= static_cast<double>(kEnumerationLimit);
  }

  /// The explicit quorum list, in the system's enumeration order. Built at
  /// most once, on first use (thread-safe), and shared by copies of the
  /// system; throws std::domain_error when the system is not enumerable().
  [[nodiscard]] const QuorumTable& quorums() const { return *shared_quorums(); }
  /// The same table, for holders that keep it (ExplicitStrategy).
  [[nodiscard]] const std::shared_ptr<const QuorumTable>& shared_quorums() const;

  /// A quorum minimizing max_{u in Q} values[u]; requires values.size() == n.
  /// Deterministic tie-breaking (the default's: first minimum in quorums()).
  [[nodiscard]] virtual Quorum best_quorum(std::span<const double> values) const;

  /// E[ max_{u in Q} values[u] ] for Q drawn uniformly over all quorums.
  /// The default averages over quorums().
  [[nodiscard]] virtual double expected_max_uniform(std::span<const double> values) const;

  /// Allocation-free expected_max_uniform: systems that need working space
  /// (copy-and-sort, row/column maxima) take it from `scratch` instead of
  /// allocating per call. Identical result to expected_max_uniform; the
  /// default forwards to it. Hot loops (placement search, delta evaluation)
  /// reuse one scratch vector across millions of calls.
  [[nodiscard]] virtual double expected_max_uniform_scratch(
      std::span<const double> values, std::vector<double>& scratch) const {
    (void)scratch;
    return expected_max_uniform(values);
  }

  /// When the uniform quorum distribution is exchangeable in the elements
  /// (E[max] depends only on the multiset of values, as for Majority), the
  /// per-rank weights w such that E[max] = dot(sorted_ascending(values), w).
  /// Empty span otherwise. Enables the order-statistic delta fast path.
  [[nodiscard]] virtual std::span<const double> order_stat_weights() const { return {}; }

  /// load(u) under the uniform access strategy, for each element. The
  /// default reads quorums()' incidence counts.
  [[nodiscard]] virtual std::vector<double> uniform_load() const;

  /// Memoized uniform_load(), kept next to the quorum table: computed once
  /// per system (copies share it) and valid while the system or a copy
  /// lives. The load-aware objective layer calls this on every naive
  /// evaluation. Thread-safe.
  [[nodiscard]] std::span<const double> uniform_load_cached() const;

  /// The system's optimal load L_opt (the paper's capacity lower bound, §7).
  /// For the symmetric systems here this is the busiest element's load under
  /// the uniform strategy. Not noexcept: some systems compute it by
  /// enumeration.
  [[nodiscard]] virtual double optimal_load() const = 0;

  /// Draws `count` quorums uniformly at random (with replacement). Supports
  /// Monte-Carlo cross-checks and approximate LP formulations for systems
  /// too large to enumerate. The default draws rows of quorums().
  [[nodiscard]] virtual std::vector<Quorum> sample_quorums(std::size_t count,
                                                           common::Rng& rng) const;

  /// Draws one uniform quorum into `out` — the allocation-light single-draw
  /// primitive the discrete-event engine (sim/engine) calls once per
  /// balanced-strategy request. Must match sample_quorums(1, rng)[0] for the
  /// same rng state; the default forwards to it, Majority and Grid override
  /// to reuse `out`'s storage.
  virtual void sample_quorum(common::Rng& rng, Quorum& out) const;

  /// P( Q intersects `elements` ) for Q drawn uniformly over all quorums.
  /// Used by the collapsed-execution load model (§8 future work), where a
  /// site hosting several universe elements executes a touching request only
  /// once. `elements` must be distinct and in range. The default merges
  /// incidence lists; Majority overrides with the hypergeometric closed form.
  [[nodiscard]] virtual double uniform_touch_probability(
      std::span<const std::size_t> elements) const;

 protected:
  /// Adds every quorum to `table`, in the system's enumeration order;
  /// quorums() calls it once, and only when the system is enumerable().
  virtual void generate_quorums(QuorumTable& table) const = 0;

 private:
  struct Memo;  // The table and the uniform load, built on first use.
  std::shared_ptr<Memo> memo_;
};

/// Validates a values span against the universe size; shared by systems.
void check_values_size(const QuorumSystem& system, std::span<const double> values);

}  // namespace qp::quorum
