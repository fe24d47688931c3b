// ClientCandidateIndex: per-client k-nearest site lists plus the inverted
// site -> clients index that makes candidate evaluation sparse on implicit
// spaces (the 10k-50k-site regime, where a full client scan per candidate
// would touch every client).
//
// For the closest access strategy, a candidate move f(u) <- b can only
// change client v's quorum *choice* if
//   * v currently charges u's site (u might leave v's chosen quorum), or
//   * d(v, b) <= m1(v), the chosen quorum's network value (b might enter).
// The first set comes from the evaluator's charge index (repaired per
// accepted move); the second is approximated by "the clients whose
// candidate list contains b". Each list is the `cap` nearest sites
// (ascending site id), and the index keeps their inversion (CSR, ascending
// client id), so DeltaEvaluator enumerates a candidate's affected clients in
// output-sensitive time and memory stays O(n * cap).
//
// A list covers m1 only when m1 falls within the cap nearest sites, so the
// candidate *ranking* is approximate: a flip triggered by a site outside
// every list can be missed, and a candidate scored as improving may in fact
// worsen the objective. apply_move stays exact, and the local search checks
// the applied objective, undoing a non-improving move and trying the
// next-ranked candidate, so the trajectory remains a genuine improving
// sequence. A cap >= n makes every list cover every site, and the indexed
// evaluation is then exact (the tests use that as its oracle).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "net/knn_index.hpp"

namespace qp::core {

class ClientCandidateIndex {
 public:
  /// Builds the `cap` nearest sites of every site-as-client of `knn`'s
  /// space. Throws std::invalid_argument on a cap of 0.
  [[nodiscard]] static ClientCandidateIndex build(const net::KnnIndex& knn,
                                                  std::size_t cap);

  [[nodiscard]] std::size_t size() const noexcept { return inv_offsets_.size() - 1; }

  /// Clients whose list contains `site`, ascending client id.
  [[nodiscard]] std::span<const std::size_t> clients_of(std::size_t site) const;

 private:
  std::vector<std::size_t> inv_offsets_{0};  // sites + 1.
  std::vector<std::size_t> inv_clients_;     // concatenated inverted lists.
};

}  // namespace qp::core
