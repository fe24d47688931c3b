// Incremental ("delta") evaluation of a pluggable search objective
//
//   J(f) = sum_v w_v R_f(v),
//   x_f(v, u) = d(v, f(u)) + alpha * load_f(f(u))         (core::Objective)
//
// under single-element relocations f(u) <- w, for both access strategies
// (w_v are the objective's demand shares; empty = uniform 1/|V|, evaluated
// by the historical unweighted arithmetic).
//
// The per-client tables are keyed by the quorum system's *shape*, chosen
// once at construction; both access strategies build and repair them with
// the same shape-keyed code, over x_f rows (balanced) or distance rows
// (closest):
//
//   * Sorted: ascending-sorted rows. Balanced: systems exposing
//     QuorumSystem::order_stat_weights (Majority, Singleton), plus prefix
//     sums of the weight differences; closest: Majority.
//   * Grid: row/column maxima and exclusion tables (balanced adds the
//     per-row/column quorum-maxima sums).
//   * Enumerated (balanced only; FPP, Tree, any enumerable system): per-
//     quorum maxima over the system's QuorumTable and its incidence lists.
//   * Generic (closest only): the rows alone. The closest choice needs only
//     QuorumSystem::best_quorum, so every other system lands here. A
//     balanced objective needs one of the three table shapes above; the
//     constructor refuses it on any other system.
//
// The evaluator serves the one-to-one local search (§4.1.1) and its
// contract: the placement is one-to-one (the constructor refuses any
// other), and every candidate and move targets the element's own site or an
// unused one (apply_move refuses an occupied target; objectives_if_moved
// audits it at QP_CHECK_LEVEL >= 2). Under that contract load_f at an
// element's site is its own lambda_u, so the load term of x_f is the
// per-element constant alpha * lambda_u, which follows the element.
//
// Balanced strategy (R = E_uniform[max x]): relocating one element changes
// exactly one coordinate of every client's value row. The tables answer a
// block of elements x target sites in one pass over the clients
// (objectives_if_moved). Per (client, site), the work that does not depend
// on the element is done once and shared by the block — the candidate value
// d(v, s) + alpha * lambda_u; Sorted: the value's lower/upper bound rank in
// the sorted row, O(log n); Grid: the row and column quorum-maxima
// reductions the value raises, O(k), each only when some element of the
// block can read it; a block of several elements stages it per client, a
// one-element block does it in place. Per (client, element), the
// move-invariant inputs are read once — Sorted: the old value's ranks,
// O(log n); Grid: the row/column exclusion maxima and their two O(k)
// reductions; Enumerated: each incident quorum's maximum without the
// element. What is left per (element, site) is Sorted and Grid: O(1)
// branch-free arithmetic (a one-element Sorted block searches each site's
// rank in place); Enumerated: one max per incident quorum. Elements share
// the pass when their load terms are bitwise equal (one group under a
// system's uniform load).
//
// Closest strategy (§6, R = rho of the argmin-network-delay quorum): the
// per-client cost couples globally through the load the quorum choices
// induce, so the evaluator maintains an incremental quorum-choice structure:
// the per-client chosen quorum (identity + its best network value m1, plus
// the second-best value for Majority) with lazy repair on site moves. One
// classifier decides, per client, what a candidate move does to the choice
// — for the full candidate scan, the capped indexed scan and apply_move alike:
//   * Unchanged: u not in the chosen quorum and d(v, w) strictly above m1 —
//     the choice provably cannot flip (any quorum containing u is now
//     strictly worse than the unchanged best), regardless of tie-breaking;
//     also a Grid client whose argmin (below) re-picks its u-free cell;
//   * KeepsSlot: u chosen and still in the winning quorum — for Majority
//     when d(v, w) is strictly below the second-best value y[q], for Grid
//     when the argmin re-picks the chosen cell; only u's charge moves;
//   * Rechosen: the choice is recomputed exactly — replicating each
//     system's best_quorum tie-breaking (Majority's (value, index)
//     selection from a patched O(log n) rank, Grid's flattened first-wins
//     argmin in O(k), bitwise equal to the k*k scan) from the cached
//     tables, or calling best_quorum itself for Generic systems (Tree's
//     DP tie-breaking is not scan order) — so distance ties stay in exact
//     parity with the naive closest evaluation.
// The candidate load table is the maintained one patched by the (few)
// flipped choices; the response pass then reprices every client's chosen
// quorum in O(|Q|). apply_move repairs the distance rows (one coordinate
// per client), the per-client sorted/maxima tables, and the quorum-choice
// tables in place — no full rebuild — then reaccumulates loads and
// responses from the repaired tables so floating-point drift cannot
// compound across moves.
//
// All shapes return values within ~1e-12 of Objective::evaluate (summation
// order differs, so bit-identity is not guaranteed), and apply_move audits
// that parity via QP_PARITY_ASSERT when QP_CHECK_LEVEL >= 2 (see
// common/check.hpp; the asan preset arms it). objectives_if_moved (and its
// one-site form objective_if_moved) is const and thread-safe, so a parallel
// neighborhood scan may share one evaluator, one block of elements per task.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/objective.hpp"
#include "core/placement.hpp"
#include "net/latency_matrix.hpp"
#include "net/latency_space.hpp"
#include "quorum/quorum_system.hpp"

namespace qp::core {

class ClientCandidateIndex;

class DeltaEvaluator {
 public:
  /// Caches per-client state for `placement` under `objective`. The space,
  /// system, and objective must outlive the evaluator; the placement is
  /// copied. The space may be a dense LatencyMatrix or any implicit
  /// LatencySpace (e.g. a LatencyEmbedding) — results are identical doubles
  /// whenever the two agree pairwise. The two-argument form evaluates pure
  /// network delay. Throws std::invalid_argument for an objective without
  /// delta support, a placement that is not one-to-one or whose size is not
  /// the system's universe size, client weights whose count is not the site
  /// count, or a balanced objective on a system that is neither Sorted, Grid
  /// nor enumerable.
  DeltaEvaluator(const net::LatencySpace& space, const quorum::QuorumSystem& system,
                 const Placement& placement, const Objective& objective);
  DeltaEvaluator(const net::LatencySpace& space, const quorum::QuorumSystem& system,
                 const Placement& placement);

  [[nodiscard]] const Placement& placement() const noexcept { return placement_; }

  /// Current objective J(f).
  [[nodiscard]] double objective() const noexcept;

  /// J(f') where f' relocates `element` to `site` (its own site or an
  /// unused one); the placement itself is unchanged. Thread-safe. A one-
  /// element, one-site objectives_if_moved.
  [[nodiscard]] double objective_if_moved(std::size_t element, std::size_t site) const;

  /// out[i * sites.size() + j] = J(f') where f' relocates elements[i] to
  /// sites[j] (elements x sites, row-major) — bitwise the one-site
  /// objective_if_moved(elements[i], sites[j]) for every block shape, but
  /// the balanced pairs share one pass over the clients. Each site must be,
  /// for every element, its own or an unused one: the answer for an
  /// occupied site is unspecified, and QP_CHECK_LEVEL >= 2 aborts on it (an
  /// O(n) scan per site). Thread-safe; the placement itself is unchanged.
  void objectives_if_moved(std::span<const std::size_t> elements,
                           std::span<const std::size_t> sites, double* out) const;

  /// Commits the relocation with per-move incremental repair of the cached
  /// distance/load/quorum-choice tables (per-client sums are reaccumulated
  /// from the repaired tables, so drift cannot compound). Throws
  /// std::out_of_range for an element or site out of range and
  /// std::invalid_argument when `site` hosts another element.
  void apply_move(std::size_t element, std::size_t site);

  /// True when the objective uses the closest access strategy (the only
  /// one that can route candidate evaluation through a ClientCandidateIndex).
  [[nodiscard]] bool closest_strategy() const noexcept { return closest_; }

  /// Routes closest-strategy candidate evaluation through the capped
  /// `index` (null detaches): objective_if_moved then touches only the
  /// clients the move can flip (charge index of the old site + inverted
  /// lists of the new site) and reprices only clients whose inputs changed,
  /// instead of scanning all n clients. The local search attaches one only
  /// on implicit spaces; a dense matrix keeps the full client scan. The
  /// candidate ranking is approximate unless the cap covers every site (see
  /// client_index.hpp); apply_move stays exact either way. The index must
  /// be built over this evaluator's space and outlive the evaluator (or the
  /// next attach). Throws std::invalid_argument for balanced objectives or
  /// a size mismatch.
  void attach_candidate_index(const ClientCandidateIndex* index);

 private:
  /// Quorum shape of the per-client tables (see the file comment).
  enum class Shape : std::uint8_t { Sorted, Grid, Enumerated, Generic };

  /// Sizes the shape's tables and rebuilds every client from the placement.
  void rebuild();
  /// Builds client v's shape tables from its freshly gathered row.
  void build_client_tables(std::size_t v);
  /// Repairs client v's row and shape tables after coordinate `element`
  /// changed from old_value to new_value (bit-exact) — shared by the
  /// balanced and closest apply paths.
  void repair_client_tables(std::size_t v, std::size_t element, double old_value,
                            double new_value);
  /// Balanced: derives client v's sum/expectation (and Sorted prefix sums,
  /// Grid quorum sums) from its shape tables and adds its weighted response
  /// into base_total_.
  void settle_balanced_client(std::size_t v);
  /// Rewrites client v's Grid row r0 / column c0 maxima and exclusion
  /// entries from values_.
  void repair_grid_client_tables(std::size_t v, std::size_t r0, std::size_t c0);
  /// Enumerated: client v's maximum over quorum l.
  void refresh_quorum_max(std::size_t v, std::size_t l);
  /// alpha * lambda_u, the load term of x_f(v, u) on a one-to-one
  /// placement; 0 unless load_aware_.
  [[nodiscard]] double load_term(std::size_t element) const noexcept {
    return load_aware_ ? alpha_ * lambda_[element] : 0.0;
  }
  /// x_f(v, u) for every element into `out` (size n_); the pure distance
  /// row for the closest strategy, which never sets load_aware_.
  void gather_values(std::size_t v, double* out) const;
  /// The balanced table kernel behind objectives_if_moved, for `elements`
  /// that share the load term `add`: adds sum_v w_v R_v of relocating
  /// elements[i] to sites[j] into rows[i][j]. One pass over the clients;
  /// per client, the work that depends on the (client, site) pair alone is
  /// done once per site, then every element scores every site against its
  /// own move-invariant table entries.
  void block_scan(double add, std::span<const std::size_t> elements,
                  std::span<const std::size_t> sites, double* const* rows) const;

  // ---- Closest-strategy machinery (see file comment). ----
  /// Chooses client v's closest quorum from its freshly built tables.
  void choose_closest_client(std::size_t v);
  /// Closest: client v's m1 (and Sorted's y[q]) from its repaired tables
  /// and chosen quorum.
  void settle_closest_client(std::size_t v);
  /// Reaccumulates closest_load_ (weighted charges of every chosen quorum)
  /// and the per-client responses from the current choice tables.
  void rebuild_closest_loads_and_rho();
  /// Client v's response: its chosen quorum repriced under closest_load_.
  void reprice_closest_client(std::size_t v);
  /// base_total_ as the weighted sum of client_sum_, in client order.
  void sum_client_responses();
  /// How relocating `element` changes one client's closest-quorum choice.
  enum class ClosestChoice : std::uint8_t {
    Unchanged,  // Same quorum, element not in it: none of v's charges move.
    KeepsSlot,  // Same quorum, element in it: only its charge follows it.
    Rechosen,   // Re-chosen exactly; the new ids were appended.
  };
  struct ClosestVerdict {
    ClosestChoice choice = ClosestChoice::Unchanged;
    /// Grid, when the argmin ran: the winning cell (the client's new
    /// choice unless it is Unchanged).
    std::size_t row = 0;
    std::size_t col = 0;
  };
  /// A candidate relocation, resolved once per candidate rather than per
  /// client: the element, its old and new site, and (Grid) its cell.
  struct ClosestMove {
    std::size_t element;
    std::size_t old_site;
    std::size_t site;
    std::size_t row;
    std::size_t col;
  };
  [[nodiscard]] ClosestMove closest_move(std::size_t element, std::size_t site) const;
  /// The one per-client classifier behind closest_if_moved,
  /// closest_if_moved_indexed and apply_move_closest (see the file comment):
  /// decides client v's choice under `move`, whose new site is at distance
  /// `d_new` from v, from the pre-move tables. A re-choice replicates each
  /// system's best_quorum tie-breaking and appends the chosen ids
  /// (ascending) to `chosen`.
  [[nodiscard]] ClosestVerdict classify_closest(std::size_t v, const ClosestMove& move,
                                                double d_new,
                                                std::vector<std::size_t>& chosen) const;
  /// Calls add(site, delta) for every per-site load change `choice` implies
  /// for client v: KeepsSlot moves the element's charge to the new site,
  /// Rechosen drops v's old charges and adds those of `rechosen`.
  template <typename Add>
  void for_each_charge_delta(std::size_t v, ClosestChoice choice,
                             std::span<const std::size_t> rechosen, const ClosestMove& move,
                             Add&& add) const;
  [[nodiscard]] double closest_if_moved(std::size_t element, std::size_t site) const;
  /// Sparse variant of closest_if_moved driven by candidate_index_ — see
  /// attach_candidate_index.
  [[nodiscard]] double closest_if_moved_indexed(std::size_t element,
                                                std::size_t site) const;
  void apply_move_closest(std::size_t element, std::size_t site);
  /// Rebuilds the site -> charging-clients lists from the current chosen
  /// quorums — the full O(clients x |Q|) pass, used at (re)build time and
  /// whenever no charge lists are maintained.
  void rebuild_charge_index();
  /// Bounded replacement for rebuild_closest_loads_and_rho after an accepted
  /// move, driven by the maintained charge lists: only the sites whose
  /// charging multiset changed are re-summed (ascending client order, so the
  /// per-site sums are bitwise those of the full reaccumulation) and only
  /// clients whose chosen quorum or a charged site's load changed are
  /// repriced. `touched_clients` are the ascending clients whose charge set
  /// moved, `new_charges` their (site, client) post-move charges in client
  /// order, `affected_sites` the union of their old and new charge sites.
  void reaccumulate_closest_dirty(std::span<const std::size_t> touched_clients,
                                  std::vector<std::pair<std::size_t, std::size_t>>& new_charges,
                                  std::vector<std::size_t>& affected_sites);
  /// Per-client weight: demand share, or 1/|V| for the uniform objective.
  [[nodiscard]] double charge_weight(std::size_t v) const noexcept;

  /// d(v, s) — dense row lookup when the space has a matrix, virtual
  /// coordinate arithmetic otherwise.
  [[nodiscard]] double site_rtt(std::size_t v, std::size_t s) const {
    return matrix_ != nullptr ? matrix_->row(v)[s] : space_->rtt(v, s);
  }

  const net::LatencySpace* space_;
  const net::LatencyMatrix* matrix_;  // space_->as_matrix(); null when implicit.
  const quorum::QuorumSystem* system_;
  const Objective* objective_;
  Placement placement_;
  Shape shape_;
  std::size_t clients_ = 0;
  std::size_t n_ = 0;

  /// Demand shares from the objective (empty = uniform). Uniform keeps the
  /// historical accumulate-then-divide arithmetic bitwise.
  std::span<const double> client_weight_;

  /// Load model: alpha and the per-element lambda_u (balanced only; see
  /// load_term). load_aware_ is false when alpha == 0 (or the objective has
  /// no load contributions), and every code path then matches the
  /// historical network-delay engine.
  double alpha_ = 0.0;
  bool load_aware_ = false;
  bool closest_ = false;
  std::span<const double> lambda_;

  /// Weighted sum over clients of R_v, and R_v itself (or the per-client
  /// quorum-sum S_v for the balanced Grid/Enumerated shapes, see .cpp).
  double base_total_ = 0.0;
  std::vector<double> client_sum_;

  // Sorted shape (the prefix sums and weights are balanced-only).
  std::span<const double> weights_;
  std::vector<double> sorted_;      // clients x n, each row ascending.
  std::vector<double> shift_up_;    // clients x n prefix sums (see .cpp).
  std::vector<double> shift_down_;  // clients x (n+1) prefix sums.

  // values_ backs every shape but balanced Sorted: x_f rows (balanced) or
  // pure distance rows (closest). The rest are per-shape tables.
  std::vector<double> values_;   // clients x n raw per-element values.
  std::size_t side_ = 0;         // Grid: k.
  std::vector<double> row_max_;  // Grid: clients x k.
  std::vector<double> col_max_;  // Grid: clients x k.
  // Grid acceleration tables (clients x n / clients x k, see .cpp): the row
  // (column) maximum excluding the element's own column (row), and the
  // per-row / per-column quorum-maxima sums, so a candidate move is two
  // branch-free O(k) reductions instead of four branchy ones.
  std::vector<double> row_excl_;        // clients x n.
  std::vector<double> col_excl_;        // clients x n.
  std::vector<double> row_quorum_sum_;  // clients x k: sum_c max(rm[r], cm[c]).
  std::vector<double> col_quorum_sum_;  // clients x k: sum_r max(rm[r], cm[c]).
  const quorum::QuorumTable* quorums_ = nullptr;  // Enumerated: the system's table.
  std::vector<double> quorum_max_;                // Enumerated: clients x |quorums|.

  // Closest-strategy quorum-choice tables.
  std::size_t majority_q_ = 0;                  // Sorted: Majority quorum size q.
  std::vector<quorum::Quorum> chosen_quorum_;   // Per-client chosen identity.
  std::vector<std::uint8_t> in_best_;           // Sorted/Generic: clients x n.
  std::vector<std::size_t> chosen_row_;         // Grid: chosen r*.
  std::vector<std::size_t> chosen_col_;         // Grid: chosen c*.
  std::vector<double> best_value_;              // m1: chosen quorum's network max.
  std::vector<double> second_value_;            // Sorted: y[q] (+inf if q == n).
  std::vector<double> closest_load_;            // Weighted load_f per site.

  // Sparse candidate evaluation (closest strategy, optional): the attached
  // per-client candidate lists and the site -> charging-clients lists (one
  // ascending client list per site, with per-element multiplicity; repaired
  // in place per accepted move).
  const ClientCandidateIndex* candidate_index_ = nullptr;
  std::vector<std::vector<std::size_t>> charge_lists_;  // sites -> clients.
  // apply_move scratch (clients-sized flags, cleared per accepted move).
  std::vector<std::uint8_t> dirty_client_;
  std::vector<std::uint8_t> reprice_client_;
};

}  // namespace qp::core
