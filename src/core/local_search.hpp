// Local-search placement improvement — a baseline the paper does not
// evaluate, used here as an ablation: how close are the constructive
// placements of §4.1.1 to a local optimum of the search objective? The
// search relocates one universe element at a time to an unused site until a
// local optimum, under any core::Objective (pure network delay by default,
// the load-aware §7 response time via LoadAwareObjective, the §6 closest
// strategy via ClosestStrategyObjective — each optionally demand-weighted).
//
// One route, chosen by the objective's capability: objectives the
// incremental core::DeltaEvaluator models (Objective::supports_delta) are
// searched through it — one pass over the clients scores every element
// against the round's shared unused-site list, instead of a full
// re-evaluation per candidate. The evaluator's contract is exactly this
// search's invariant: a one-to-one placement, and moves of one element to
// an unused site. The route can scan the neighborhood on the shared thread
// pool, each task scoring a contiguous block of elements in place: one block
// per pool thread on the dense balanced scan, where a block shares each
// (client, site)'s work across its elements, and one element per task with
// candidate_knn > 0 (each element has its own targets) or a closest
// objective (whose candidates share no work). The parallel scan only
// distributes candidate evaluation; the accept decision replays the serial
// scan order, so results are bit-identical for any thread count. The rest
// (FailureAwareObjective's expectation over failure sets) take a full
// re-evaluation per candidate, which needs a dense matrix. Both loops are
// best-improvement: each round scans every (element, unused site)
// relocation and takes the best move that improves the objective by more
// than 1e-9 (the first such move in scan order wins ties), so they agree
// move for move wherever both apply.
//
// Sparse candidate search (the 10k-50k-site regime): `candidate_knn`
// restricts each element's relocation targets to the k sites nearest its
// current site (via a net::KnnIndex). One closest-strategy route per kind of
// space: a dense matrix scores every candidate with the evaluator's full
// client scan, which is exact, so the search replays the reference scan's
// decisions move for move (the parity suites pin that on every n <= 500
// config). An implicit space routes candidate evaluation through a
// ClientCandidateIndex capped at max(64, candidate_knn) sites per client, so
// one candidate touches only the clients it can affect; the ranking is then
// approximate, and every applied move is checked against the exact
// objective.
#pragma once

#include <cstddef>

#include "core/objective.hpp"
#include "core/placement.hpp"
#include "net/knn_index.hpp"
#include "net/latency_space.hpp"
#include "quorum/quorum_system.hpp"

namespace qp::core {

struct LocalSearchOptions {
  /// Hard cap on improvement rounds (each round accepts at most one move).
  std::size_t max_rounds = 100;
  /// Search objective; nullptr = pure network delay. The pointee must
  /// outlive the call.
  const Objective* objective = nullptr;
  /// Worker threads for the delta candidate scan: 0 = the shared global
  /// pool, 1 = fully serial, n > 1 = a dedicated pool of n threads. The
  /// dense balanced scan splits the elements into one block per thread.
  /// Bit-identical results for every setting. The full re-evaluation route
  /// is serial.
  std::size_t threads = 0;
  /// 0 scans every unused site per element (the dense scan); k > 0
  /// restricts each element's candidate targets to the k unused sites
  /// nearest its current site (targets enumerated in ascending site order,
  /// so k >= n reproduces the dense candidate list exactly). Delta route
  /// only.
  std::size_t candidate_knn = 0;
  /// k-NN index over the search space, used for candidate targets and, on
  /// an implicit space, for building the client candidate lists. Optional
  /// when the space has a dense matrix (a brute-force index is built on the
  /// fly when candidate_knn > 0); required with candidate_knn > 0 or a
  /// closest objective on an implicit space. Must be built over `space`
  /// (std::invalid_argument otherwise) and outlive the call.
  const net::KnnIndex* knn = nullptr;
};

struct LocalSearchResult {
  Placement placement;
  /// Objective value of the final placement (avg_v E_uniform[max d] for the
  /// default network-delay objective).
  double objective = 0.0;
  /// Number of accepted relocation moves.
  std::size_t moves = 0;
};

/// Hill-climbs from `initial` (must be one-to-one) and returns a placement
/// that no single-element relocation improves. Deterministic. The space may
/// be a dense LatencyMatrix (every historical caller) or an implicit
/// LatencySpace such as a LatencyEmbedding, for every objective (those
/// without delta support re-evaluate each of the O(n * |U|) candidates in
/// full, so keep n small). The reported objective is always the canonical
/// Objective::evaluate of the final placement.
[[nodiscard]] LocalSearchResult local_search_placement(const net::LatencySpace& space,
                                                       const quorum::QuorumSystem& system,
                                                       const Placement& initial,
                                                       const LocalSearchOptions& options = {});

}  // namespace qp::core
