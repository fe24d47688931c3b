// Brute-force checks of a quorum system, over the public quorum:: API: the
// pairwise-intersection property by enumeration, and the pmf of the maximum
// over a uniform random subset.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "quorum/order_stats.hpp"
#include "quorum/quorum_system.hpp"
#include "support/quorum_enumeration.hpp"

namespace qp::quorum::test_support {

/// True iff every two quorums intersect. Reads the system's quorum table, so
/// it throws std::domain_error when the system is not enumerable().
[[nodiscard]] inline bool verify_intersection(const QuorumSystem& system) {
  const std::vector<Quorum> quorums = quorum_list(system);
  for (std::size_t a = 0; a < quorums.size(); ++a) {
    for (std::size_t b = a + 1; b < quorums.size(); ++b) {
      // Quorums are sorted, so intersection is a linear merge.
      std::size_t i = 0, j = 0;
      bool intersects = false;
      while (i < quorums[a].size() && j < quorums[b].size()) {
        if (quorums[a][i] == quorums[b][j]) {
          intersects = true;
          break;
        }
        if (quorums[a][i] < quorums[b][j]) {
          ++i;
        } else {
          ++j;
        }
      }
      if (!intersects) return false;
    }
  }
  return true;
}

/// P(max = sorted_values[i]) for each i, for a uniform random
/// `subset_size`-subset of `values` (aligned to the ascending order). The
/// pmf does not depend on the values, only on their count.
[[nodiscard]] inline std::vector<double> max_order_distribution(std::span<const double> values,
                                                                std::size_t subset_size) {
  const std::span<const double> weights = max_order_weights(values.size(), subset_size);
  return std::vector<double>(weights.begin(), weights.end());
}

}  // namespace qp::quorum::test_support
