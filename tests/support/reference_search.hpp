// The dense best-improvement reference search over a detached
// DeltaEvaluator: every candidate is scored by its own objective_if_moved
// call, the evaluator's full client scan (no ClientCandidateIndex attached),
// in the production (element, unused site) order with the production accept
// rule. local_search_placement, which scores one element's targets per
// batch, must reproduce its moves exactly wherever its indexed evaluation is
// exact.
#pragma once

#include <cstddef>
#include <vector>

#include "core/delta_eval.hpp"
#include "core/local_search.hpp"

namespace qp::core::test_support {

[[nodiscard]] inline LocalSearchResult reference_local_search(
    const net::LatencyMatrix& matrix, const quorum::QuorumSystem& system,
    const Placement& initial, const Objective& objective, std::size_t max_rounds) {
  DeltaEvaluator eval{matrix, system, initial, objective};
  std::vector<bool> used(matrix.size(), false);
  for (std::size_t site : initial.site_of) used[site] = true;
  LocalSearchResult result;
  for (; result.moves < max_rounds; ++result.moves) {
    double best = eval.objective();
    std::size_t best_element = 0;
    std::size_t best_site = matrix.size();
    for (std::size_t u = 0; u < system.universe_size(); ++u) {
      for (std::size_t w = 0; w < matrix.size(); ++w) {
        if (used[w]) continue;
        const double candidate = eval.objective_if_moved(u, w);
        if (candidate < best - 1e-9) {
          best = candidate;
          best_element = u;
          best_site = w;
        }
      }
    }
    if (best_site == matrix.size()) break;
    used[eval.placement().site_of[best_element]] = false;
    used[best_site] = true;
    eval.apply_move(best_element, best_site);
  }
  result.placement = eval.placement();
  result.objective = objective.evaluate(matrix, system, result.placement);
  return result;
}

}  // namespace qp::core::test_support
