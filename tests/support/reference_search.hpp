// The dense best-improvement reference search over a detached
// DeltaEvaluator: every candidate is scored by its own objective_if_moved
// call, the evaluator's full client scan (no ClientCandidateIndex attached),
// in the production (element, unused site) order with the production accept
// rule. local_search_placement, which scores blocks of elements against
// chunks of the shared target list, must reproduce its moves exactly on a
// dense matrix.
//
// Each round scores its candidates on the shared thread pool, one task per
// element, into a candidate-ordered array (objective_if_moved is const and
// thread-safe); the accept decision is the serial (element, site) scan over
// that array, so the result does not depend on the thread count.
#pragma once

#include <cstddef>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/delta_eval.hpp"
#include "core/local_search.hpp"

namespace qp::core::test_support {

[[nodiscard]] inline LocalSearchResult reference_local_search(
    const net::LatencyMatrix& matrix, const quorum::QuorumSystem& system,
    const Placement& initial, const Objective& objective, std::size_t max_rounds) {
  DeltaEvaluator eval{matrix, system, initial, objective};
  const std::size_t universe = system.universe_size();
  std::vector<bool> used(matrix.size(), false);
  for (std::size_t site : initial.site_of) used[site] = true;
  std::vector<std::size_t> free_sites;
  std::vector<double> scores;  // universe x free_sites, element-major.
  LocalSearchResult result;
  for (; result.moves < max_rounds; ++result.moves) {
    free_sites.clear();
    for (std::size_t w = 0; w < matrix.size(); ++w) {
      if (!used[w]) free_sites.push_back(w);
    }
    const std::size_t width = free_sites.size();
    scores.resize(universe * width);
    common::global_thread_pool().parallel_for(0, universe, [&](std::size_t u) {
      for (std::size_t i = 0; i < width; ++i) {
        scores[u * width + i] = eval.objective_if_moved(u, free_sites[i]);
      }
    });
    double best = eval.objective();
    std::size_t best_element = 0;
    std::size_t best_site = matrix.size();
    for (std::size_t u = 0; u < universe; ++u) {
      for (std::size_t i = 0; i < width; ++i) {
        const double candidate = scores[u * width + i];
        if (candidate < best - 1e-9) {
          best = candidate;
          best_element = u;
          best_site = free_sites[i];
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
