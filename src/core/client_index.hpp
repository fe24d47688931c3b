// ClientCandidateIndex: per-client k-nearest site lists plus the inverted
// site -> clients index that makes candidate evaluation sparse.
//
// For the closest access strategy, a candidate move f(u) <- b can only
// change client v's quorum *choice* if
//   * v currently charges u's site (u might leave v's chosen quorum), or
//   * d(v, b) <= m1(v), the chosen quorum's network value (b might enter).
// The first set comes from the evaluator's charge index (rebuilt per
// accepted move); the second is exactly "the clients whose candidate list
// contains b" — provided each client's list covers every site within its
// m1. This index stores those lists (CSR, ascending site id) and their
// inversion (CSR, ascending client id), so DeltaEvaluator can enumerate the
// affected clients of a candidate in output-sensitive time instead of
// scanning all n clients.
//
// Two modes:
//  * Uncapped (cap == 0): each list covers radius[v] * 1.25 (at least 8
//    sites; the slack lets m1 grow across moves). Combined with the
//    evaluator's overflow tracking (clients whose m1 outgrows their
//    covered radius are always checked), candidate evaluation is EXACT —
//    the sparse path returns the same answer as the full scan up to FP
//    summation order. This is the parity mode used on every n <= 500
//    config.
//  * Capped (cap > 0): each list is the cap nearest sites. Coverage of m1
//    is no longer guaranteed, so candidate *ranking* becomes approximate
//    (a flip triggered by a site outside every list can be missed), so a
//    candidate scored as improving may in fact worsen the objective.
//    apply_move stays exact, and the local search checks the applied
//    objective, undoing a non-improving move and trying the next-ranked
//    candidate — the trajectory remains a genuine improving sequence. This
//    bounds memory at O(n * cap) for the 10k-50k regime.
//
// Lists are static after build; the evaluator re-checks coverage against
// the current m1 after every accepted move (see overflow_clients_).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "net/knn_index.hpp"
#include "net/latency_space.hpp"

namespace qp::core {

class ClientCandidateIndex {
 public:
  struct Config {
    /// 0 = uncapped (exact coverage of radius * 1.25, at least 8 sites);
    /// > 0 caps each list at that many nearest sites (approximate, bounded
    /// memory).
    std::size_t cap = 0;
  };

  /// Builds lists for every site-as-client of `space`. `radius` is the
  /// per-client coverage target (typically the evaluator's current m1
  /// values); empty means 0 (8-site lists). `knn` accelerates the list
  /// queries and is required when `space.as_matrix()` is null; otherwise a
  /// brute-force dense scan is used. Throws std::invalid_argument on a
  /// radius count that is not the site count, or a missing backend.
  [[nodiscard]] static ClientCandidateIndex build(const net::LatencySpace& space,
                                                  const net::KnnIndex* knn,
                                                  std::span<const double> radius,
                                                  const Config& config);

  [[nodiscard]] std::size_t size() const noexcept { return radius_.size(); }
  [[nodiscard]] bool capped() const noexcept { return capped_; }

  /// Client v's candidate sites, ascending site id.
  [[nodiscard]] std::span<const std::size_t> sites_of(std::size_t client) const;
  /// Coverage radius actually guaranteed for v: every site with
  /// rtt(v, s) <= covered_radius(v) is in sites_of(v). Meaningful for the
  /// uncapped mode (capped lists guarantee only the cap nearest).
  [[nodiscard]] double covered_radius(std::size_t client) const;
  /// Clients whose list contains `site`, ascending client id.
  [[nodiscard]] std::span<const std::size_t> clients_of(std::size_t site) const;

  /// Total list entries (forward == inverted); memory/coverage telemetry.
  [[nodiscard]] std::size_t total_entries() const noexcept { return sites_.size(); }

 private:
  bool capped_ = false;
  std::vector<std::size_t> offsets_;      // clients + 1.
  std::vector<std::size_t> sites_;        // concatenated lists.
  std::vector<double> radius_;            // per-client covered radius.
  std::vector<std::size_t> inv_offsets_;  // sites + 1.
  std::vector<std::size_t> inv_clients_;  // concatenated inverted lists.
};

}  // namespace qp::core
