#include "core/local_search.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/client_index.hpp"
#include "core/delta_eval.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace qp::core {

namespace {

// Search telemetry (shared by both engines): candidates scanned, moves
// taken, rounds, and index rebuilds. Counts are tallied in bulk per round —
// never per candidate — so the instrumented hot loop is unchanged.
const obs::Counter c_ls_candidates = obs::counter("core.local_search.candidates");
const obs::Counter c_ls_moves = obs::counter("core.local_search.moves_accepted");
const obs::Counter c_ls_rounds = obs::counter("core.local_search.rounds");
const obs::Counter c_ls_rebuilds =
    obs::counter("core.local_search.index_rebuilds");
const obs::Counter c_ls_naive_runs = obs::counter("core.local_search.naive_runs");
const obs::Counter c_ls_delta_runs = obs::counter("core.local_search.delta_runs");

/// One relocation candidate: move `element` to (currently unused) `site`.
struct Candidate {
  std::size_t element;
  std::size_t site;
};

/// Candidates a Delta first-improvement round evaluates per parallel batch.
/// Any fixed value yields the same accepted move (the lowest improving index
/// is batch-independent); 256 keeps a shared pool busy without evaluating
/// far past the accepted candidate.
constexpr std::size_t kFirstImprovementBlock = 256;

LocalSearchResult local_search_naive(const net::LatencyMatrix& matrix,
                                     const quorum::QuorumSystem& system,
                                     const Placement& initial, const Objective& objective,
                                     const LocalSearchOptions& options) {
  QP_TRACE_SPAN("core.local_search.naive");
  c_ls_naive_runs.add();
  LocalSearchResult result;
  result.placement = initial;
  result.objective = objective.evaluate(matrix, system, result.placement);

  std::vector<bool> used(matrix.size(), false);
  for (std::size_t site : result.placement.site_of) used[site] = true;

  const bool first_improvement =
      options.strategy == LocalSearchStrategy::FirstImprovement;
  for (std::size_t round = 0; round < options.max_rounds; ++round) {
    QP_TRACE_SPAN("core.local_search.pass");
    c_ls_rounds.add();
    std::size_t scanned = 0;
    double best_objective = result.objective;
    std::size_t best_element = 0;
    std::size_t best_site = 0;
    bool found = false;
    // Deterministic scan over all (element, unused site) relocations; the
    // first-improvement strategy stops at the first improving candidate.
    for (std::size_t u = 0; u < result.placement.universe_size(); ++u) {
      const std::size_t original = result.placement.site_of[u];
      for (std::size_t w = 0; w < matrix.size(); ++w) {
        if (used[w]) continue;
        result.placement.site_of[u] = w;
        const double candidate = objective.evaluate(matrix, system, result.placement);
        ++scanned;
        if (candidate < best_objective - options.min_improvement) {
          best_objective = candidate;
          best_element = u;
          best_site = w;
          found = true;
          if (first_improvement) break;
        }
      }
      result.placement.site_of[u] = original;
      if (found && first_improvement) break;
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
  // brute-force one over the dense matrix), per-element target lists, and —
  // for closest objectives — the client candidate index that makes each
  // candidate's evaluation touch only affected clients.
  const net::KnnIndex* knn = options.knn;
  std::optional<net::KnnIndex> local_knn;
  const bool need_knn =
      options.candidate_knn > 0 || (options.client_index && eval.closest_strategy());
  if (knn == nullptr && need_knn) {
    if (matrix == nullptr) {
      throw std::invalid_argument{
          "local_search_placement: sparse candidate search over an implicit "
          "LatencySpace requires LocalSearchOptions::knn"};
    }
    local_knn.emplace(*matrix);
    knn = &*local_knn;
  }
  std::optional<ClientCandidateIndex> client_index;
  ClientCandidateIndex::Config index_config;
  if (options.client_index && eval.closest_strategy()) {
    ClientCandidateIndex::Config config;
    config.cap = options.client_index_cap;
    if (config.cap == 0 && matrix == nullptr) {
      // Implicit spaces default to capped lists: exact coverage of every
      // client's m1 is O(n) per far client before the search tightens the
      // placement (see client_index.hpp).
      config.cap = std::max<std::size_t>(64, options.candidate_knn);
    }
    client_index = ClientCandidateIndex::build(space, knn, eval.best_values(), config);
    eval.attach_candidate_index(&*client_index);
    index_config = config;
  }
  // Radius-shrinking rebuild schedule (uncapped lists only, see the option).
  const bool reindex = client_index.has_value() && !client_index->capped() &&
                       options.client_index_rebuild > 0;
  std::size_t moves_since_reindex = 0;

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

  const bool first_improvement =
      options.strategy == LocalSearchStrategy::FirstImprovement;
  LocalSearchResult result;
  std::vector<Candidate> candidates;
  std::vector<double> objectives;
  std::vector<net::KnnIndex::Neighbor> neighbors;
  std::vector<std::size_t> targets;
  for (std::size_t round = 0; round < options.max_rounds; ++round) {
    QP_TRACE_SPAN("core.local_search.pass");
    c_ls_rounds.add();
    const double current = eval.objective();
    candidates.clear();
    if (options.candidate_knn == 0) {
      for (std::size_t u = 0; u < eval.placement().universe_size(); ++u) {
        for (std::size_t w = 0; w < space.size(); ++w) {
          if (!used[w]) candidates.push_back(Candidate{u, w});
        }
      }
    } else {
      // Per-element targets: the candidate_knn unused sites nearest the
      // element's current site. Querying k + universe neighbors guarantees
      // enough unused ones; targets are re-sorted by site id so the
      // candidate order (and hence tie-breaking) matches the dense scan.
      const std::size_t universe = eval.placement().universe_size();
      const std::size_t query = std::min(space.size(), options.candidate_knn + universe);
      for (std::size_t u = 0; u < universe; ++u) {
        knn->nearest(eval.placement().site_of[u], query, neighbors);
        targets.clear();
        for (const auto& nb : neighbors) {
          if (targets.size() == options.candidate_knn) break;
          if (!used[nb.site]) targets.push_back(nb.site);
        }
        std::sort(targets.begin(), targets.end());
        for (std::size_t w : targets) candidates.push_back(Candidate{u, w});
      }
    }
    objectives.resize(candidates.size());
    const auto evaluate_range = [&](std::size_t begin, std::size_t end) {
      const auto evaluate_candidate = [&](std::size_t i) {
        objectives[i] = eval.objective_if_moved(candidates[i].element, candidates[i].site);
      };
      if (pool != nullptr) {
        pool->parallel_for(begin, end, evaluate_candidate);
      } else {
        for (std::size_t i = begin; i < end; ++i) evaluate_candidate(i);
      }
    };

    // Fixed-order accept: the decision always replays the serial scan over
    // the candidate-ordered objectives, so the selected move (and its
    // tie-breaking) is identical for any thread count. Returns
    // candidates.size() when no evaluated candidate improves.
    std::size_t evaluated = 0;
    const auto select = [&] {
      if (first_improvement) {
        // Evaluate fixed-size blocks and take the lowest improving index;
        // which index wins does not depend on the block size.
        for (std::size_t i = 0; i < candidates.size(); ++i) {
          if (i == evaluated) {
            evaluated = std::min(candidates.size(), evaluated + kFirstImprovementBlock);
            evaluate_range(i, evaluated);
          }
          if (objectives[i] < current - options.min_improvement) return i;
        }
        return candidates.size();
      }
      if (evaluated == 0) {
        evaluate_range(0, candidates.size());
        evaluated = candidates.size();
      }
      std::size_t best = candidates.size();
      double best_objective = current;
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        if (objectives[i] < best_objective - options.min_improvement) {
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
    while (best_index != candidates.size()) {
      const Candidate move = candidates[best_index];
      const std::size_t from = eval.placement().site_of[move.element];
      eval.apply_move(move.element, move.site);
      if (eval.objective() < current - options.min_improvement) {
        used[from] = false;
        used[move.site] = true;
        break;
      }
      eval.apply_move(move.element, from);
      objectives[best_index] = std::numeric_limits<double>::infinity();
      best_index = select();
    }
    c_ls_candidates.add(evaluated);
    if (best_index == candidates.size()) break;
    ++result.moves;
    c_ls_moves.add();
    if (reindex && ++moves_since_reindex >= options.client_index_rebuild) {
      // Fresh lists match the current m1 radii (tight coverage, empty
      // overflow set); exactness never depended on the list contents.
      ClientCandidateIndex rebuilt =
          ClientCandidateIndex::build(space, knn, eval.best_values(), index_config);
      client_index = std::move(rebuilt);
      eval.attach_candidate_index(&*client_index);
      moves_since_reindex = 0;
      c_ls_rebuilds.add();
    }
  }

  result.placement = eval.placement();
  // Final objective via the canonical evaluator, so callers comparing against
  // Objective::evaluate (or average_uniform_network_delay) see the exact
  // same value. Implicit spaces report the incrementally maintained value
  // (reaccumulated from repaired tables on every move, so drift-free).
  result.objective = matrix != nullptr
                         ? objective.evaluate(*matrix, system, result.placement)
                         : eval.objective();
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
  const Objective& objective =
      options.objective != nullptr ? *options.objective : network_delay_objective();
  // Objectives the incremental engine cannot model (expectations over
  // failure sets, see Objective::supports_delta) silently take the naive
  // full-re-evaluation path; results are engine-independent either way.
  if (options.engine == LocalSearchEngine::Naive || !objective.supports_delta()) {
    const net::LatencyMatrix* matrix = space.as_matrix();
    if (matrix == nullptr) {
      throw std::invalid_argument{
          "local_search_placement: the Naive engine (and non-delta objectives) "
          "require a dense LatencyMatrix"};
    }
    return local_search_naive(*matrix, system, initial, objective, options);
  }
  return local_search_delta(space, system, initial, objective, options);
}

}  // namespace qp::core
