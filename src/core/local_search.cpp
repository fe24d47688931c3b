#include "core/local_search.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/client_index.hpp"
#include "core/delta_eval.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace qp::core {

namespace {

// Search telemetry (shared by both routes): candidates scanned, moves
// taken and rounds. Counts are tallied in bulk per round — never per
// candidate — so the instrumented hot loop is unchanged.
const obs::Counter c_ls_candidates = obs::counter("core.local_search.candidates");
const obs::Counter c_ls_moves = obs::counter("core.local_search.moves_accepted");
const obs::Counter c_ls_rounds = obs::counter("core.local_search.rounds");
const obs::Counter c_ls_naive_runs = obs::counter("core.local_search.naive_runs");
const obs::Counter c_ls_delta_runs = obs::counter("core.local_search.delta_runs");

/// A move must improve the objective by more than this to be taken.
constexpr double kMinImprovement = 1e-9;

/// Sites per client candidate list on an implicit space (at least
/// candidate_knn): O(n * cap) memory, see client_index.hpp.
constexpr std::size_t kClientIndexCap = 64;

/// The full re-evaluation route, for objectives the DeltaEvaluator does not
/// model: one Objective::evaluate per candidate.
LocalSearchResult local_search_naive(const net::LatencySpace& space,
                                     const quorum::QuorumSystem& system,
                                     const Placement& initial, const Objective& objective,
                                     const LocalSearchOptions& options) {
  QP_TRACE_SPAN("core.local_search.naive");
  c_ls_naive_runs.add();
  LocalSearchResult result;
  result.placement = initial;
  result.objective = objective.evaluate(space, system, result.placement);

  std::vector<bool> used(space.size(), false);
  for (std::size_t site : result.placement.site_of) used[site] = true;

  for (std::size_t round = 0; round < options.max_rounds; ++round) {
    QP_TRACE_SPAN("core.local_search.pass");
    c_ls_rounds.add();
    std::size_t scanned = 0;
    double best_objective = result.objective;
    std::size_t best_element = 0;
    std::size_t best_site = 0;
    bool found = false;
    // Deterministic scan over all (element, unused site) relocations.
    for (std::size_t u = 0; u < result.placement.universe_size(); ++u) {
      const std::size_t original = result.placement.site_of[u];
      for (std::size_t w = 0; w < space.size(); ++w) {
        if (used[w]) continue;
        result.placement.site_of[u] = w;
        const double candidate = objective.evaluate(space, system, result.placement);
        ++scanned;
        if (candidate < best_objective - kMinImprovement) {
          best_objective = candidate;
          best_element = u;
          best_site = w;
          found = true;
        }
      }
      result.placement.site_of[u] = original;
    }
    c_ls_candidates.add(scanned);
    if (!found) break;
    used[result.placement.site_of[best_element]] = false;
    used[best_site] = true;
    result.placement.site_of[best_element] = best_site;
    result.objective = best_objective;
    ++result.moves;
    c_ls_moves.add();
  }
  return result;
}

LocalSearchResult local_search_delta(const net::LatencySpace& space,
                                     const quorum::QuorumSystem& system,
                                     const Placement& initial, const Objective& objective,
                                     const LocalSearchOptions& options) {
  QP_TRACE_SPAN("core.local_search.delta");
  c_ls_delta_runs.add();
  const net::LatencyMatrix* matrix = space.as_matrix();
  DeltaEvaluator eval{space, system, initial, objective};

  // Sparse candidate machinery: a k-NN index over the space (borrowed, or a
  // brute-force one over the dense matrix) for per-element target lists,
  // and, on an implicit space, the capped client candidate index that makes
  // a closest candidate touch only the clients it can affect. A dense
  // matrix scores closest candidates with the full client scan.
  const net::KnnIndex* knn = options.knn;
  std::optional<net::KnnIndex> local_knn;
  const bool client_index = eval.closest_strategy() && matrix == nullptr;
  if (knn == nullptr && (options.candidate_knn > 0 || client_index)) {
    if (matrix == nullptr) {
      throw std::invalid_argument{
          "local_search_placement: sparse candidate search over an implicit "
          "LatencySpace requires LocalSearchOptions::knn"};
    }
    local_knn.emplace(*matrix);
    knn = &*local_knn;
  }
  std::optional<ClientCandidateIndex> candidate_index;
  if (client_index) {
    candidate_index = ClientCandidateIndex::build(
        *knn, std::max<std::size_t>(kClientIndexCap, options.candidate_knn));
    eval.attach_candidate_index(&*candidate_index);
  }

  std::vector<bool> used(space.size(), false);
  for (std::size_t site : initial.site_of) used[site] = true;

  // threads == 1 runs serial; 0 shares the global pool; n > 1 gets its own.
  std::optional<common::ThreadPool> dedicated;
  common::ThreadPool* pool = nullptr;
  if (options.threads == 0) {
    pool = &common::global_thread_pool();
  } else if (options.threads > 1) {
    dedicated.emplace(options.threads);
    pool = &*dedicated;
  }

  LocalSearchResult result;
  const std::size_t universe = eval.placement().universe_size();
  std::vector<std::size_t> elements(universe);
  std::iota(elements.begin(), elements.end(), std::size_t{0});
  const std::size_t threads = pool != nullptr ? pool->size() : 1;
  // The round's candidates in scan order: element u's target sites are
  // sites[group[u], group[u + 1]).
  std::vector<std::size_t> sites;
  std::vector<std::size_t> group(universe + 1);
  std::vector<double> objectives;
  std::vector<net::KnnIndex::Neighbor> neighbors;
  std::vector<std::size_t> targets;
  for (std::size_t round = 0; round < options.max_rounds; ++round) {
    QP_TRACE_SPAN("core.local_search.pass");
    c_ls_rounds.add();
    const double current = eval.objective();
    sites.clear();
    if (options.candidate_knn == 0) {
      for (std::size_t u = 0; u < universe; ++u) {
        group[u] = sites.size();
        for (std::size_t w = 0; w < space.size(); ++w) {
          if (!used[w]) sites.push_back(w);
        }
      }
    } else {
      // Per-element targets: the candidate_knn unused sites nearest the
      // element's current site. Querying k + universe neighbors guarantees
      // enough unused ones; targets are re-sorted by site id so the
      // candidate order (and hence tie-breaking) matches the dense scan.
      const std::size_t query = std::min(space.size(), options.candidate_knn + universe);
      for (std::size_t u = 0; u < universe; ++u) {
        group[u] = sites.size();
        knn->nearest(eval.placement().site_of[u], query, neighbors);
        targets.clear();
        for (const auto& nb : neighbors) {
          if (targets.size() == options.candidate_knn) break;
          if (!used[nb.site]) targets.push_back(nb.site);
        }
        std::sort(targets.begin(), targets.end());
        sites.insert(sites.end(), targets.begin(), targets.end());
      }
    }
    group[universe] = sites.size();
    objectives.resize(sites.size());
    // Each task scores a contiguous block of elements into its rows of
    // `objectives` in place. On the dense balanced scan every element shares
    // one target list and a block does each (client, site)'s work once for
    // all its elements: one block per pool thread. Per-element lists (sparse
    // candidates) and closest candidates, which share no work, take one
    // element per task, so the pool balances their uneven costs.
    const std::size_t blocks = options.candidate_knn == 0 && !eval.closest_strategy()
                                   ? std::min(threads, universe)
                                   : universe;
    const auto block_begin = [&](std::size_t t) { return universe * t / blocks; };
    const auto evaluate_block = [&](std::size_t t) {
      const std::size_t first = block_begin(t);
      eval.objectives_if_moved({elements.data() + first, block_begin(t + 1) - first},
                               {sites.data() + group[first], group[first + 1] - group[first]},
                               objectives.data() + group[first]);
    };
    if (pool != nullptr) {
      pool->parallel_for(0, blocks, evaluate_block);
    } else {
      for (std::size_t t = 0; t < blocks; ++t) evaluate_block(t);
    }
    c_ls_candidates.add(sites.size());

    // Fixed-order accept: the decision always replays the serial scan over
    // the candidate-ordered objectives, so the selected move (and its
    // tie-breaking) is identical for any thread count. Returns
    // sites.size() when no candidate improves.
    const auto select = [&] {
      std::size_t best = sites.size();
      double best_objective = current;
      for (std::size_t i = 0; i < sites.size(); ++i) {
        if (objectives[i] < best_objective - kMinImprovement) {
          best_objective = objectives[i];
          best = i;
        }
      }
      return best;
    };
    // Capped client lists rank candidates approximately, so the exact
    // apply_move gets the last word: a move that does not really improve is
    // undone and the next-ranked candidate tried. Exact paths never undo.
    std::size_t best_index = select();
    while (best_index != sites.size()) {
      const std::size_t element = static_cast<std::size_t>(
          std::upper_bound(group.begin(), group.end(), best_index) - group.begin() - 1);
      const std::size_t site = sites[best_index];
      const std::size_t from = eval.placement().site_of[element];
      eval.apply_move(element, site);
      if (eval.objective() < current - kMinImprovement) {
        used[from] = false;
        used[site] = true;
        break;
      }
      eval.apply_move(element, from);
      objectives[best_index] = std::numeric_limits<double>::infinity();
      best_index = select();
    }
    if (best_index == sites.size()) break;
    ++result.moves;
    c_ls_moves.add();
  }

  result.placement = eval.placement();
  // Final objective via the canonical evaluator, so callers comparing against
  // Objective::evaluate see the exact same value on any space.
  result.objective = objective.evaluate(space, system, result.placement);
  return result;
}

}  // namespace

LocalSearchResult local_search_placement(const net::LatencySpace& space,
                                         const quorum::QuorumSystem& system,
                                         const Placement& initial,
                                         const LocalSearchOptions& options) {
  initial.validate(space.size());
  if (!initial.one_to_one()) {
    throw std::invalid_argument{"local_search_placement: initial must be one-to-one"};
  }
  if (options.knn != nullptr && options.knn->size() != space.size()) {
    throw std::invalid_argument{"local_search_placement: knn index size != site count"};
  }
  const Objective& objective =
      options.objective != nullptr ? *options.objective : network_delay_objective();
  if (objective.supports_delta()) {
    return local_search_delta(space, system, initial, objective, options);
  }
  // Objectives the incremental evaluator cannot model (expectations over
  // failure sets, see Objective::supports_delta) take the full
  // re-evaluation route.
  return local_search_naive(space, system, initial, objective, options);
}

}  // namespace qp::core
