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
//   * enumerate_quorums()      — explicit quorum list when tractable, used
//                                 by the LP access-strategy optimizer.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace qp::quorum {

/// A quorum: sorted, distinct element indices in [0, universe_size).
using Quorum = std::vector<std::size_t>;

/// Default limit of enumerable() / enumerate_quorums(). The strategy LP, the
/// many-to-one LP and the iterative alternation all enumerate under it, so a
/// quorum distribution from one indexes another's quorum list.
inline constexpr std::size_t kEnumerationLimit = 100'000;

class QuorumSystem {
 public:
  virtual ~QuorumSystem() = default;

  [[nodiscard]] virtual std::size_t universe_size() const noexcept = 0;
  [[nodiscard]] virtual std::string name() const = 0;

  /// Number of quorums, as a double because Majority counts overflow.
  [[nodiscard]] virtual double quorum_count() const noexcept = 0;

  /// True when enumerate_quorums() would produce at most `limit` quorums.
  [[nodiscard]] bool enumerable(std::size_t limit = kEnumerationLimit) const noexcept {
    return quorum_count() <= static_cast<double>(limit);
  }

  /// Explicit quorum list; throws std::domain_error when not enumerable
  /// within the given limit.
  [[nodiscard]] virtual std::vector<Quorum> enumerate_quorums(
      std::size_t limit = kEnumerationLimit) const = 0;

  /// A quorum minimizing max_{u in Q} values[u]; requires values.size() == n.
  /// Deterministic tie-breaking (lowest element indices win).
  [[nodiscard]] virtual Quorum best_quorum(std::span<const double> values) const = 0;

  /// E[ max_{u in Q} values[u] ] for Q drawn uniformly over all quorums.
  [[nodiscard]] virtual double expected_max_uniform(std::span<const double> values) const = 0;

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

  /// load(u) under the uniform access strategy, for each element.
  [[nodiscard]] virtual std::vector<double> uniform_load() const = 0;

  /// Memoized uniform_load() with program-lifetime storage, keyed by the
  /// system's (parameter-carrying) name plus its universe size (same-named
  /// systems of different sizes do not collide). Systems whose uniform load is
  /// computed by enumeration (Tree, FPP) pay that cost once instead of per
  /// evaluation; the load-aware objective layer calls this on every naive
  /// evaluation. Thread-safe.
  [[nodiscard]] std::span<const double> uniform_load_cached() const;

  /// The system's optimal load L_opt (the paper's capacity lower bound, §7).
  /// For the symmetric systems here this is the busiest element's load under
  /// the uniform strategy. Not noexcept: some systems compute it by
  /// enumeration.
  [[nodiscard]] virtual double optimal_load() const = 0;

  /// Verifies the pairwise-intersection property by enumeration. Throws
  /// std::domain_error if the system is too large to enumerate.
  [[nodiscard]] bool verify_intersection(std::size_t limit = 20'000) const;

  /// Draws `count` quorums uniformly at random (with replacement). Supports
  /// Monte-Carlo cross-checks and approximate LP formulations for systems
  /// too large to enumerate.
  [[nodiscard]] virtual std::vector<Quorum> sample_quorums(std::size_t count,
                                                           common::Rng& rng) const = 0;

  /// Draws one uniform quorum into `out` — the allocation-light single-draw
  /// primitive the discrete-event engine (sim/engine) calls once per
  /// balanced-strategy request. Must match sample_quorums(1, rng)[0] for the
  /// same rng state; the default forwards to it, Majority and Grid override
  /// to reuse `out`'s storage.
  virtual void sample_quorum(common::Rng& rng, Quorum& out) const;

  /// P( Q intersects `elements` ) for Q drawn uniformly over all quorums.
  /// Used by the collapsed-execution load model (§8 future work), where a
  /// site hosting several universe elements executes a touching request only
  /// once. `elements` must be distinct and in range. The default enumerates;
  /// Majority overrides with the hypergeometric closed form.
  [[nodiscard]] virtual double uniform_touch_probability(
      std::span<const std::size_t> elements) const;
};

/// Validates a values span against the universe size; shared by systems.
void check_values_size(const QuorumSystem& system, std::span<const double> values);

}  // namespace qp::quorum
