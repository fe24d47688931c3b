#include "core/delta_eval.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <type_traits>

#include "common/check.hpp"
#include "common/simd_kernels.hpp"
#include "core/client_index.hpp"
#include "obs/metrics.hpp"
#include "quorum/grid.hpp"
#include "quorum/majority.hpp"

namespace qp::core {

namespace {

// Candidate-evaluation telemetry: which dispatch path served each candidate
// of an objectives_if_moved block, plus per-client classification tallies
// for the closest engines (pruned = provably unchanged, kept = slot
// retained, recomputed = full quorum re-choice). Tallies are accumulated
// into stack locals and recorded with a few shard adds per block or closest
// candidate — never per client — so the per-candidate overhead stays flat.
const obs::Counter c_de_candidates = obs::counter("core.delta_eval.candidates");
const obs::Counter c_de_fast = obs::counter("core.delta_eval.fast_path");
const obs::Counter c_de_closest_full =
    obs::counter("core.delta_eval.closest_full_scans");
const obs::Counter c_de_closest_indexed =
    obs::counter("core.delta_eval.closest_indexed_scans");
const obs::Counter c_de_pruned =
    obs::counter("core.delta_eval.closest_clients_pruned");
const obs::Counter c_de_kept =
    obs::counter("core.delta_eval.closest_clients_kept");
const obs::Counter c_de_recomputed =
    obs::counter("core.delta_eval.closest_clients_recomputed");
const obs::Counter c_de_apply = obs::counter("core.delta_eval.apply_moves");

/// Value at (0-based) rank `r` of the ascending row `y` (length n) after
/// removing one copy of `removed` (which must be present) and inserting
/// `inserted` — the patched order statistic, in O(log n) without touching
/// the row.
double patched_sorted_rank(const double* y, std::size_t n, double removed, double inserted,
                           std::size_t r) {
  const double* end = y + n;
  const std::size_t p = static_cast<std::size_t>(std::lower_bound(y, end, removed) - y);
  std::size_t i = static_cast<std::size_t>(std::lower_bound(y, end, inserted) - y);
  if (p < i) --i;  // The removed copy sits below the insertion point.
  const auto without = [&](std::size_t j) { return y[j >= p ? j + 1 : j]; };
  if (r < i) return without(r);
  if (r == i) return inserted;
  return without(r - 1);
}

/// Visits the elements of Grid quorum (row r, column c) in ascending element
/// order — the order charge_quorum sees from a sorted Quorum, so load
/// accumulation matches site_loads_closest bitwise.
template <typename Fn>
void for_each_grid_element(std::size_t k, std::size_t r, std::size_t c, Fn&& fn) {
  for (std::size_t rr = 0; rr < k; ++rr) {
    if (rr == r) {
      for (std::size_t cc = 0; cc < k; ++cc) fn(r * k + cc);
    } else {
      fn(rr * k + c);
    }
  }
}

/// MajorityQuorum::best_quorum's selection, given the q-th smallest t of
/// `value(u)` over the n elements: the q smallest by (value, index) —
/// everything strictly below t, then ties at t filling the remaining quota
/// in ascending element order. Appends the ids (ascending) to `out`.
template <typename Value>
void majority_select(std::size_t n, std::size_t q, double t, Value&& value,
                     std::vector<std::size_t>& out) {
  std::size_t less = 0;
  for (std::size_t u = 0; u < n; ++u) less += value(u) < t ? 1 : 0;
  std::size_t quota = q - less;
  for (std::size_t u = 0; u < n; ++u) {
    const double x = value(u);
    if (x < t) {
      out.push_back(u);
    } else if (x == t && quota > 0) {
      out.push_back(u);
      --quota;
    }
  }
}

struct GridCell {
  std::size_t row = 0;
  std::size_t col = 0;
  double value = std::numeric_limits<double>::infinity();
};

/// GridQuorum::best_quorum's flattened first-wins argmin over the k*k cells
/// max(row'[r], col'[c]), where row' / col' are `rm` / `cm` with row r0
/// replaced by nr and column c0 by nc (r0 = c0 = k replaces nothing). O(k)
/// instead of the k*k scan: each row's minimum is max(row'[r], min_c
/// col'[c]), so the strict-< scan's winner is the first cell (row-major)
/// attaining the global minimum — the first row whose minimum attains it,
/// then the first column attaining it within that row. Pure selection (no
/// arithmetic), so the cell and its value are bitwise the k*k scan's.
GridCell grid_argmin(const double* rm, const double* cm, std::size_t k, std::size_t r0,
                     double nr, std::size_t c0, double nc) {
  double col_min = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < k; ++c) col_min = std::min(col_min, c == c0 ? nc : cm[c]);
  GridCell best;
  for (std::size_t r = 0; r < k; ++r) {
    const double val = std::max(r == r0 ? nr : rm[r], col_min);
    if (val < best.value) {
      best.value = val;
      best.row = r;
    }
  }
  const double rr = best.row == r0 ? nr : rm[best.row];
  for (std::size_t c = 0; c < k; ++c) {
    if (std::max(rr, c == c0 ? nc : cm[c]) == best.value) {
      best.col = c;
      break;
    }
  }
  return best;
}

}  // namespace

DeltaEvaluator::DeltaEvaluator(const net::LatencySpace& space,
                               const quorum::QuorumSystem& system,
                               const Placement& placement, const Objective& objective)
    : space_(&space),
      matrix_(space.as_matrix()),
      system_(&system),
      objective_(&objective),
      placement_(placement),
      shape_(Shape::Generic) {
  placement_.validate(space.size());
  if (!objective.supports_delta()) {
    throw std::invalid_argument{
        "DeltaEvaluator: objective does not support incremental evaluation "
        "(local_search_placement re-evaluates it in full)"};
  }
  clients_ = space.size();
  n_ = placement_.universe_size();
  if (n_ != system.universe_size()) {
    throw std::invalid_argument{"DeltaEvaluator: placement size != universe size"};
  }
  if (!placement_.one_to_one()) {
    throw std::invalid_argument{"DeltaEvaluator: placement must be one-to-one"};
  }
  alpha_ = objective.alpha();
  client_weight_ = objective.client_weights();
  if (!client_weight_.empty() && client_weight_.size() != clients_) {
    throw std::invalid_argument{"DeltaEvaluator: client weight count != clients"};
  }
  closest_ = objective.access_strategy() == AccessStrategy::Closest;
  const auto* majority = dynamic_cast<const quorum::MajorityQuorum*>(&system);
  if (!closest_) {
    lambda_ = objective.element_loads(system);
    load_aware_ = alpha_ != 0.0 && !lambda_.empty();
    if (load_aware_ && lambda_.size() != n_) {
      throw std::logic_error{"DeltaEvaluator: element_loads size mismatch"};
    }
    weights_ = system.order_stat_weights();
    if (!weights_.empty() && weights_.size() != n_) {
      throw std::logic_error{"DeltaEvaluator: order_stat_weights size mismatch"};
    }
  }
  // Sorted: balanced needs the order-statistic weights, closest needs
  // Majority's quorum size. Enumerated is balanced-only: the closest choice
  // needs nothing beyond best_quorum, which Generic calls directly.
  if (closest_ ? majority != nullptr : !weights_.empty()) {
    shape_ = Shape::Sorted;
    if (closest_) majority_q_ = majority->quorum_size();
  } else if (const auto* grid = dynamic_cast<const quorum::GridQuorum*>(&system)) {
    shape_ = Shape::Grid;
    side_ = grid->side();
  } else if (!closest_ && system.enumerable()) {
    shape_ = Shape::Enumerated;
    quorums_ = &system.quorums();
  } else if (!closest_) {
    throw std::invalid_argument{
        "DeltaEvaluator: a balanced objective needs a Sorted, Grid or enumerable "
        "quorum system"};
  }
  rebuild();
}

DeltaEvaluator::DeltaEvaluator(const net::LatencySpace& space,
                               const quorum::QuorumSystem& system,
                               const Placement& placement)
    : DeltaEvaluator(space, system, placement, network_delay_objective()) {}

double DeltaEvaluator::objective() const noexcept {
  return client_weight_.empty() ? base_total_ / static_cast<double>(clients_)
                                : base_total_;
}

double DeltaEvaluator::charge_weight(std::size_t v) const noexcept {
  return client_weight_.empty() ? 1.0 / static_cast<double>(clients_) : client_weight_[v];
}

void DeltaEvaluator::gather_values(std::size_t v, double* out) const {
  space_->fill_rtts(v, placement_.site_of.data(), n_, out);
  if (!load_aware_) return;
  for (std::size_t u = 0; u < n_; ++u) out[u] += load_term(u);
}

void DeltaEvaluator::repair_grid_client_tables(std::size_t v, std::size_t r0,
                                               std::size_t c0) {
  const std::size_t k = side_;
  const double neg_inf = -std::numeric_limits<double>::infinity();
  const double* vals = values_.data() + v * n_;
  double* rm = row_max_.data() + v * k;
  double* cm = col_max_.data() + v * k;
  double m = neg_inf;
  for (std::size_t c = 0; c < k; ++c) m = std::max(m, vals[r0 * k + c]);
  rm[r0] = m;
  m = neg_inf;
  for (std::size_t r = 0; r < k; ++r) m = std::max(m, vals[r * k + c0]);
  cm[c0] = m;
  // row_excl[(r, c)] = max of row r without column c (so the new row maximum
  // after placing `val` at (r, c) is max(row_excl, val) with no branch);
  // col_excl is the transpose analogue. Only row r0's row-exclusions and
  // column c0's column-exclusions depend on the changed cell.
  double* rex = row_excl_.data() + v * n_;
  double* cex = col_excl_.data() + v * n_;
  for (std::size_t c = 0; c < k; ++c) {
    double without = neg_inf;
    for (std::size_t o = 0; o < k; ++o) {
      if (o != c) without = std::max(without, vals[r0 * k + o]);
    }
    rex[r0 * k + c] = without;
  }
  for (std::size_t r = 0; r < k; ++r) {
    double without = neg_inf;
    for (std::size_t o = 0; o < k; ++o) {
      if (o != r) without = std::max(without, vals[o * k + c0]);
    }
    cex[r * k + c0] = without;
  }
}

void DeltaEvaluator::refresh_quorum_max(std::size_t v, std::size_t l) {
  const double* vals = values_.data() + v * n_;
  double worst = -std::numeric_limits<double>::infinity();
  for (std::size_t u : (*quorums_)[l]) worst = std::max(worst, vals[u]);
  quorum_max_[v * quorums_->size() + l] = worst;
}

void DeltaEvaluator::build_client_tables(std::size_t v) {
  switch (shape_) {
    case Shape::Sorted: {
      double* y = sorted_.data() + v * n_;
      if (closest_) {
        const double* vals = values_.data() + v * n_;
        std::copy(vals, vals + n_, y);
      }
      std::sort(y, y + n_);
      break;
    }
    case Shape::Grid:
      // Row i and column i for every i rewrite every maximum and exclusion.
      for (std::size_t i = 0; i < side_; ++i) repair_grid_client_tables(v, i, i);
      break;
    case Shape::Enumerated:
      for (std::size_t l = 0; l < quorums_->size(); ++l) refresh_quorum_max(v, l);
      break;
    case Shape::Generic:
      break;
  }
}

void DeltaEvaluator::repair_client_tables(std::size_t v, std::size_t element,
                                          double old_value, double new_value) {
  if (shape_ != Shape::Sorted || closest_) values_[v * n_ + element] = new_value;
  switch (shape_) {
    case Shape::Sorted: {
      // Remove the (bit-exact) old value, insert the new one: the row's
      // contents match a from-scratch sort of the updated multiset.
      double* y = sorted_.data() + v * n_;
      double* end = y + n_;
      double* p = std::lower_bound(y, end, old_value);
      QP_CHECK(p != end && *p == old_value,
               "Sorted repair: the bit-exact old value vanished from the sorted row "
               "(placement and tables out of sync)");
      std::copy(p + 1, end, p);
      double* ins = std::lower_bound(y, end - 1, new_value);
      std::copy_backward(ins, end - 1, end);
      *ins = new_value;
      break;
    }
    case Shape::Grid:
      repair_grid_client_tables(v, element / side_, element % side_);
      break;
    case Shape::Enumerated:
      for (std::size_t l : quorums_->incident(element)) refresh_quorum_max(v, l);
      break;
    case Shape::Generic:
      break;  // Closest only: no tables beyond the row itself.
  }
}

void DeltaEvaluator::settle_balanced_client(std::size_t v) {
  double response = 0.0;
  switch (shape_) {
    case Shape::Sorted: {
      const double* w = weights_.data();
      const double* y = sorted_.data() + v * n_;
      double expectation = 0.0;
      for (std::size_t i = 0; i < n_; ++i) expectation += y[i] * w[i];
      client_sum_[v] = response = expectation;
      // A[j] = sum_{i<j} y[i] (w[i+1] - w[i]) — the expectation change when
      // the j smallest values all shift one rank up (an insertion below
      // them); B[j] = sum_{1<=i<j} y[i] (w[i-1] - w[i]) — one rank down.
      double* a = shift_up_.data() + v * n_;
      double* b = shift_down_.data() + v * (n_ + 1);
      a[0] = 0.0;
      for (std::size_t j = 1; j < n_; ++j) a[j] = a[j - 1] + y[j - 1] * (w[j] - w[j - 1]);
      b[0] = 0.0;
      if (n_ >= 1) b[1] = 0.0;
      for (std::size_t j = 2; j <= n_; ++j) {
        b[j] = b[j - 1] + y[j - 1] * (w[j - 2] - w[j - 1]);
      }
      break;
    }
    case Shape::Grid: {
      // Per-row / per-column quorum-maxima sums from the row/col maxima.
      const std::size_t k = side_;
      const double* rm = row_max_.data() + v * k;
      const double* cm = col_max_.data() + v * k;
      double* rqs = row_quorum_sum_.data() + v * k;
      double* cqs = col_quorum_sum_.data() + v * k;
      std::fill(rqs, rqs + k, 0.0);
      std::fill(cqs, cqs + k, 0.0);
      double sum = 0.0;
      for (std::size_t r = 0; r < k; ++r) {
        for (std::size_t c = 0; c < k; ++c) {
          const double quorum_max = std::max(rm[r], cm[c]);
          rqs[r] += quorum_max;
          cqs[c] += quorum_max;
          sum += quorum_max;
        }
      }
      client_sum_[v] = sum;
      response = sum / static_cast<double>(n_);
      break;
    }
    case Shape::Enumerated: {
      const std::size_t count = quorums_->size();
      const double* qmax = quorum_max_.data() + v * count;
      double sum = 0.0;
      for (std::size_t l = 0; l < count; ++l) sum += qmax[l];
      client_sum_[v] = sum;
      response = sum / static_cast<double>(count);
      break;
    }
    case Shape::Generic:
      break;  // Closest only; the constructor refuses a balanced objective.
  }
  base_total_ += (client_weight_.empty() ? 1.0 : client_weight_[v]) * response;
}

void DeltaEvaluator::rebuild() {
  const std::size_t k = side_;
  client_sum_.resize(clients_);
  if (shape_ != Shape::Sorted || closest_) values_.resize(clients_ * n_);
  switch (shape_) {
    case Shape::Sorted:
      sorted_.resize(clients_ * n_);
      if (!closest_) {
        shift_up_.resize(clients_ * n_);
        shift_down_.resize(clients_ * (n_ + 1));
      }
      break;
    case Shape::Grid:
      row_max_.resize(clients_ * k);
      col_max_.resize(clients_ * k);
      row_excl_.resize(clients_ * n_);
      col_excl_.resize(clients_ * n_);
      if (!closest_) {
        row_quorum_sum_.resize(clients_ * k);
        col_quorum_sum_.resize(clients_ * k);
      }
      break;
    case Shape::Enumerated:
      quorum_max_.resize(clients_ * quorums_->size());
      break;
    case Shape::Generic:
      break;
  }
  if (closest_) {
    chosen_quorum_.assign(clients_, {});
    best_value_.resize(clients_);
    if (shape_ == Shape::Grid) {
      chosen_row_.resize(clients_);
      chosen_col_.resize(clients_);
    } else {
      in_best_.assign(clients_ * n_, 0);
    }
    if (shape_ == Shape::Sorted) second_value_.resize(clients_);
  }
  base_total_ = 0.0;
  const bool gather_sorted = shape_ == Shape::Sorted && !closest_;  // No values_ row.
  for (std::size_t v = 0; v < clients_; ++v) {
    gather_values(v, (gather_sorted ? sorted_ : values_).data() + v * n_);
    build_client_tables(v);
    if (closest_) {
      choose_closest_client(v);
    } else {
      settle_balanced_client(v);
    }
  }
  if (closest_) rebuild_closest_loads_and_rho();
}

double DeltaEvaluator::objective_if_moved(std::size_t element, std::size_t site) const {
  double out = 0.0;
  objectives_if_moved({&element, 1}, {&site, 1}, &out);
  return out;
}

void DeltaEvaluator::objectives_if_moved(std::span<const std::size_t> elements,
                                         std::span<const std::size_t> sites,
                                         double* out) const {
  const std::size_t m = sites.size();
  for (std::size_t element : elements) {
    QP_CHECK(element < n_, "objective_if_moved: element out of range");
  }
  for (std::size_t site : sites) {
    QP_CHECK(site < clients_, "objective_if_moved: site out of range");
#if QP_PARITY_AUDIT_ENABLED
    const auto host = std::find(placement_.site_of.begin(), placement_.site_of.end(), site);
    for (std::size_t element : elements) {
      QP_CHECK(host == placement_.site_of.end() ||
                   static_cast<std::size_t>(host - placement_.site_of.begin()) == element,
               "objective_if_moved: the target site hosts another element");
    }
#endif
  }
  if (elements.empty() || m == 0) return;
  if (closest_) {
    for (std::size_t i = 0; i < elements.size(); ++i) {
      const std::size_t element = elements[i];
      const std::size_t old_site = placement_.site_of[element];
      for (std::size_t j = 0; j < m; ++j) {
        const std::size_t site = sites[j];
        if (site == old_site) continue;  // Filled in below.
        out[i * m + j] = candidate_index_ != nullptr ? closest_if_moved_indexed(element, site)
                                                     : closest_if_moved(element, site);
      }
    }
  } else {
    std::fill(out, out + elements.size() * m, 0.0);
    // Elements that carry bitwise-equal load terms share one client pass:
    // under a system's uniform load that is the whole block.
    static thread_local std::vector<std::uint8_t> tl_grouped;
    static thread_local std::vector<std::size_t> tl_group;
    static thread_local std::vector<double*> tl_rows;
    tl_grouped.assign(elements.size(), 0);
    for (std::size_t first = 0; first < elements.size(); ++first) {
      if (tl_grouped[first] != 0) continue;
      const double add = load_term(elements[first]);
      tl_group.clear();
      tl_rows.clear();
      for (std::size_t i = first; i < elements.size(); ++i) {
        if (tl_grouped[i] != 0 || load_term(elements[i]) != add) continue;
        tl_grouped[i] = 1;
        tl_group.push_back(elements[i]);
        tl_rows.push_back(out + i * m);
      }
      block_scan(add, tl_group, sites, tl_rows.data());
    }
    if (client_weight_.empty()) {
      for (double* total = out; total != out + elements.size() * m; ++total) {
        *total /= static_cast<double>(clients_);
      }
    }
  }
  // The no-op move to an element's own site is the current objective and no
  // candidate.
  std::size_t own = 0;
  for (std::size_t i = 0; i < elements.size(); ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      if (sites[j] != placement_.site_of[elements[i]]) continue;
      out[i * m + j] = objective();
      ++own;
    }
  }
  const std::size_t candidates = elements.size() * m - own;
  c_de_candidates.add(candidates);
  if (!closest_) c_de_fast.add(candidates);
}

void DeltaEvaluator::block_scan(double add, std::span<const std::size_t> elements,
                                std::span<const std::size_t> sites, double* const* rows) const {
  // Client-major: the outer loop walks the clients; per client, the work
  // that depends on the (client, site) pair alone is done once per site and
  // shared by every element, and each (element, site) total accumulates the
  // one-element expressions in client order — so every total is bitwise
  // what a scan of that element and site alone returns.
  const std::size_t m = sites.size();
  static thread_local std::vector<double> tl_val;  // Sites: the client's candidate value.
  tl_val.resize(m);
  // Client v's candidate values d(v, sites[j]) + add: one contiguous row on
  // a dense space, one fill_rtts on an implicit one.
  const auto gather = [&](std::size_t v) {
    if (matrix_ != nullptr) {
      const double* row = matrix_->row(v).data();
      for (std::size_t j = 0; j < m; ++j) tl_val[j] = row[sites[j]] + add;
    } else {
      space_->fill_rtts(v, sites.data(), m, tl_val.data());
      for (std::size_t j = 0; j < m; ++j) tl_val[j] += add;
    }
  };
  const double* val = tl_val.data();
  switch (shape_) {
    case Shape::Sorted: {
      // Moving the old value down removes its first copy at p_lo and inserts
      // at ins <= p_lo: the values in [ins, p_lo) shift one rank up (prefix
      // sums A). Moving it up removes its last copy at p_hi and inserts at
      // q >= p_hi: the values in (p_hi, q] shift one rank down (B). A
      // one-element block searches each site's ins in [0, p_lo) or q in
      // [p_hi, n). A block of several stages each site's ranks once per
      // client — lb = lower_bound in [0, P) when its value lies below some
      // element's old value, ub = upper_bound in [Q, n) when above one, with
      // P the largest p_lo and Q the smallest p_hi — and every element reads
      // ins = min(lb, p_lo) and q = max(ub, p_hi + 1) - 1, the same ranks;
      // the clamps keep a stale or default rank in range in the branch not
      // taken.
      static thread_local std::vector<std::size_t> tl_lb;  // Sites: staged ranks.
      static thread_local std::vector<std::size_t> tl_ub;
      static thread_local std::vector<double> tl_old;  // Elements: the client's old values.
      static thread_local std::vector<std::size_t> tl_p_lo;
      static thread_local std::vector<std::size_t> tl_p_hi;
      if (elements.size() > 1) {
        tl_lb.assign(m, 0);
        tl_ub.assign(m, 0);
      }
      tl_old.resize(elements.size());
      tl_p_lo.resize(elements.size());
      tl_p_hi.resize(elements.size());
      const double* w = weights_.data();
      const auto pass = [&](auto staged) {
        constexpr bool kStaged = decltype(staged)::value;
        for (std::size_t v = 0; v < clients_; ++v) {
          gather(v);
          const double* y = sorted_.data() + v * n_;
          const double* a = shift_up_.data() + v * n_;
          const double* b = shift_down_.data() + v * (n_ + 1);
          // A one-site block searches only the old rank its site reads;
          // wider ones search both.
          const double lowest_site = m == 1 ? val[0] : -std::numeric_limits<double>::infinity();
          const double highest_site = m == 1 ? val[0] : std::numeric_limits<double>::infinity();
          double lowest = std::numeric_limits<double>::infinity();
          double highest = -std::numeric_limits<double>::infinity();
          std::size_t largest_p_lo = 0;
          std::size_t smallest_p_hi = n_;
          for (std::size_t i = 0; i < elements.size(); ++i) {
            const double old_value = site_rtt(v, placement_.site_of[elements[i]]) + add;
            tl_old[i] = old_value;
            tl_p_lo[i] = lowest_site < old_value
                             ? static_cast<std::size_t>(std::lower_bound(y, y + n_, old_value) - y)
                             : 0;
            tl_p_hi[i] =
                highest_site > old_value
                    ? static_cast<std::size_t>(std::upper_bound(y, y + n_, old_value) - y) - 1
                    : 0;
            if constexpr (kStaged) {
              lowest = std::min(lowest, old_value);
              highest = std::max(highest, old_value);
              largest_p_lo = std::max(largest_p_lo, tl_p_lo[i]);
              if (highest_site > old_value) smallest_p_hi = std::min(smallest_p_hi, tl_p_hi[i]);
            }
          }
          if constexpr (kStaged) {
            for (std::size_t j = 0; j < m; ++j) {
              if (val[j] < highest) {
                tl_lb[j] = static_cast<std::size_t>(
                    std::lower_bound(y, y + largest_p_lo, val[j]) - y);
              }
              if (val[j] > lowest) {
                tl_ub[j] = static_cast<std::size_t>(
                    std::upper_bound(y + smallest_p_hi, y + n_, val[j]) - y);
              }
            }
          }
          const double base = client_sum_[v];
          const double weight = client_weight_.empty() ? 1.0 : client_weight_[v];
          const auto score_element = [&](std::size_t i) {
            const double old_value = tl_old[i];
            const std::size_t p_lo = tl_p_lo[i];
            const std::size_t p_hi = tl_p_hi[i];
            const double old_lo = old_value * w[p_lo];
            const double old_hi = old_value * w[p_hi];
            const double a_lo = a[p_lo];
            const double b_hi = b[p_hi + 1];
            // The change of the client's sum when a site of value `value`
            // is inserted at rank ins (moving down) or q (moving up).
            const auto down = [&](double value, std::size_t ins) {
              return value * w[ins] - old_lo + (a_lo - a[ins]);
            };
            const auto up = [&](double value, std::size_t q) {
              return value * w[q] - old_hi + (b[q + 1] - b_hi);
            };
            double* total = rows[i];
            if constexpr (kStaged) {
              for (std::size_t j = 0; j < m; ++j) {
                const double value = val[j];
                const double to_lower = down(value, std::min(tl_lb[j], p_lo));
                const double to_higher = up(value, std::max(tl_ub[j], p_hi + 1) - 1);
                const double delta =
                    value < old_value ? to_lower : (value > old_value ? to_higher : 0.0);
                total[j] += weight * (base + delta);
              }
            } else {
              for (std::size_t j = 0; j < m; ++j) {
                const double value = val[j];
                double delta = 0.0;
                if (value < old_value) {
                  delta = down(value, static_cast<std::size_t>(
                                          std::lower_bound(y, y + p_lo, value) - y));
                } else if (value > old_value) {
                  delta = up(value, static_cast<std::size_t>(
                                        std::upper_bound(y + p_hi, y + n_, value) - y) -
                                        1);
                }
                total[j] += weight * (base + delta);
              }
            }
          };
          // A constant trip count lets the one-element block run as a
          // straight-line body.
          if constexpr (kStaged) {
            for (std::size_t i = 0; i < elements.size(); ++i) score_element(i);
          } else {
            score_element(0);
          }
        }
      };
      if (elements.size() > 1) {
        pass(std::true_type{});
      } else {
        pass(std::false_type{});
      }
      break;
    }
    case Shape::Grid: {
      // Per site, the two O(k) reductions over a row (column) that the site
      // raises: sum_c max(val, cm[c]) and sum_r max(val, rm[r]). An element
      // reads one only when the site's value exceeds its row (column)
      // exclusion. A block of several elements stages them once per client,
      // each only when the value exceeds the smallest exclusion among the
      // elements, and its element loop loads both unconditionally (so it
      // vectorizes); a one-element block reads each at most once, so it
      // computes them in place.
      static thread_local std::vector<double> tl_row_sum;
      static thread_local std::vector<double> tl_col_sum;
      static thread_local std::vector<std::size_t> tl_row;  // Elements: the element's row.
      static thread_local std::vector<std::size_t> tl_col;  // Elements: its column.
      if (elements.size() > 1) {
        tl_row_sum.assign(m, 0.0);
        tl_col_sum.assign(m, 0.0);
      }
      const double* row_sum = tl_row_sum.data();
      const double* col_sum = tl_col_sum.data();
      const std::size_t k = side_;
      tl_row.resize(elements.size());
      tl_col.resize(elements.size());
      for (std::size_t i = 0; i < elements.size(); ++i) {
        tl_row[i] = elements[i] / k;
        tl_col[i] = elements[i] % k;
      }
      const double nd = static_cast<double>(n_);
      // One pass per block kind, so each compiles to its own loop nest.
      const auto pass = [&](auto staged) {
        constexpr bool kStaged = decltype(staged)::value;
        for (std::size_t v = 0; v < clients_; ++v) {
          gather(v);
          const double* rm = row_max_.data() + v * k;
          const double* cm = col_max_.data() + v * k;
          const double* rex = row_excl_.data() + v * n_;
          const double* cex = col_excl_.data() + v * n_;
          if constexpr (kStaged) {
            double min_row_excl = std::numeric_limits<double>::infinity();
            double min_col_excl = std::numeric_limits<double>::infinity();
            for (std::size_t element : elements) {
              min_row_excl = std::min(min_row_excl, rex[element]);
              min_col_excl = std::min(min_col_excl, cex[element]);
            }
            for (std::size_t j = 0; j < m; ++j) {
              if (min_row_excl < val[j]) {
                tl_row_sum[j] = common::max_with_bound_sum(val[j], {cm, k});
              }
              if (min_col_excl < val[j]) {
                tl_col_sum[j] = common::max_with_bound_sum(val[j], {rm, k});
              }
            }
          }
          const double base = client_sum_[v];
          const double weight = client_weight_.empty() ? 1.0 : client_weight_[v];
          const auto score_element = [&](std::size_t i) {
            const std::size_t element = elements[i];
            const std::size_t r0 = tl_row[i];
            const std::size_t c0 = tl_col[i];
            const double row_excl = rex[element];
            const double col_excl = cex[element];
            const double cm_c0 = cm[c0];
            const double rm_r0 = rm[r0];
            const double old_row_part = row_quorum_sum_[v * k + r0];
            const double old_col_part = col_quorum_sum_[v * k + c0] - std::max(rm_r0, cm_c0);
            // A site no farther than the rest of row r0 (column c0) leaves its
            // maximum, and hence the O(k) reduction over it, unchanged.
            const double row_sum_excl = common::max_with_bound_sum(row_excl, {cm, k});
            const double col_sum_excl = common::max_with_bound_sum(col_excl, {rm, k});
            // With new_row = max(row_excl, value) and new_col = max(col_excl,
            // value), each maximum below folds its site-independent operands
            // first (max is exact, so the grouping does not change a bit).
            const double cell_excl = std::max(row_excl, col_excl);  // max(new_row, new_col)
            const double row_c0_excl = std::max(row_excl, cm_c0);   // max(new_row, cm[c0])
            const double r0_col_excl = std::max(rm_r0, col_excl);   // max(rm[r0], new_col)
            // The client's term for a site of value `value` whose row (column)
            // reduction is new_row_sum (new_col_sum). Only quorum maxima in row
            // r0 or column c0 change. New row-r0 part: sum_c max(new_row,
            // cm'[c]) with cm'[c0] = new_col — the full-row reduction corrected
            // at c0; the old part is the cached sum. New column-c0 part
            // excluding the shared (r0, c0) cell; the old part is the cached
            // column sum minus that cell.
            const auto term = [&](double value, double new_row_sum, double new_col_sum) {
              const double row_part =
                  std::max(cell_excl, value) - std::max(row_c0_excl, value) + new_row_sum;
              const double col_part = new_col_sum - std::max(r0_col_excl, value);
              const double delta = (row_part - old_row_part) + (col_part - old_col_part);
              return weight * ((base + delta) / nd);
            };
            double* total = rows[i];
            if constexpr (kStaged) {
              for (std::size_t j = 0; j < m; ++j) {
                const double value = val[j];
                const double site_row_sum = row_sum[j];
                const double site_col_sum = col_sum[j];
                total[j] += term(value, row_excl < value ? site_row_sum : row_sum_excl,
                                 col_excl < value ? site_col_sum : col_sum_excl);
              }
            } else {
              for (std::size_t j = 0; j < m; ++j) {
                const double value = val[j];
                total[j] += term(
                    value,
                    row_excl < value ? common::max_with_bound_sum(value, {cm, k}) : row_sum_excl,
                    col_excl < value ? common::max_with_bound_sum(value, {rm, k}) : col_sum_excl);
              }
            }
          };
          // A constant trip count lets the one-element block run as a
          // straight-line body.
          if constexpr (kStaged) {
            for (std::size_t i = 0; i < elements.size(); ++i) score_element(i);
          } else {
            score_element(0);
          }
        }
      };
      if (elements.size() > 1) {
        pass(std::true_type{});
      } else {
        pass(std::false_type{});
      }
      break;
    }
    case Shape::Enumerated: {
      // Per (client, element), each incident quorum's maximum without the
      // element; the candidate maximum is then one max against the site's
      // value.
      const std::size_t count = quorums_->size();
      static thread_local std::vector<double> tl_excl;
      static thread_local std::vector<double> tl_old;
      for (std::size_t v = 0; v < clients_; ++v) {
        gather(v);
        const double* vals = values_.data() + v * n_;
        const double* qmax = quorum_max_.data() + v * count;
        const double base = client_sum_[v];
        const double weight = client_weight_.empty() ? 1.0 : client_weight_[v];
        for (std::size_t i = 0; i < elements.size(); ++i) {
          const std::size_t element = elements[i];
          const std::span<const std::uint32_t> incident = quorums_->incident(element);
          tl_excl.resize(incident.size());
          tl_old.resize(incident.size());
          for (std::size_t l = 0; l < incident.size(); ++l) {
            double worst = -std::numeric_limits<double>::infinity();
            for (std::size_t u : (*quorums_)[incident[l]]) {
              if (u != element) worst = std::max(worst, vals[u]);
            }
            tl_excl[l] = worst;
            tl_old[l] = qmax[incident[l]];
          }
          double* total = rows[i];
          for (std::size_t j = 0; j < m; ++j) {
            double delta = 0.0;
            for (std::size_t l = 0; l < incident.size(); ++l) {
              delta += std::max(tl_excl[l], val[j]) - tl_old[l];
            }
            total[j] += weight * ((base + delta) / static_cast<double>(count));
          }
        }
      }
      break;
    }
    case Shape::Generic:
      break;  // Closest only; the constructor refuses a balanced objective.
  }
}

// ---------------------------------------------------------------- Closest.

void DeltaEvaluator::choose_closest_client(std::size_t v) {
  const double* vals = values_.data() + v * n_;
  switch (shape_) {
    case Shape::Sorted:
      majority_select(
          n_, majority_q_, sorted_[v * n_ + majority_q_ - 1],
          [&](std::size_t u) { return vals[u]; }, chosen_quorum_[v]);
      break;
    case Shape::Grid: {
      const std::size_t k = side_;
      const GridCell best =
          grid_argmin(row_max_.data() + v * k, col_max_.data() + v * k, k, k, 0.0, k, 0.0);
      chosen_row_[v] = best.row;
      chosen_col_[v] = best.col;
      for_each_grid_element(k, best.row, best.col,
                            [&](std::size_t e) { chosen_quorum_[v].push_back(e); });
      break;
    }
    case Shape::Enumerated:  // Balanced-only; see the constructor.
    case Shape::Generic:
      chosen_quorum_[v] = system_->best_quorum(std::span<const double>{vals, n_});
      break;
  }
  if (shape_ != Shape::Grid) {
    for (std::size_t e : chosen_quorum_[v]) in_best_[v * n_ + e] = 1;
  }
  settle_closest_client(v);
}

void DeltaEvaluator::settle_closest_client(std::size_t v) {
  switch (shape_) {
    case Shape::Sorted: {
      const double* y = sorted_.data() + v * n_;
      best_value_[v] = y[majority_q_ - 1];
      second_value_[v] =
          majority_q_ < n_ ? y[majority_q_] : std::numeric_limits<double>::infinity();
      break;
    }
    case Shape::Grid:
      // The chosen cell's quorum max — the argmin's value (max is exact).
      best_value_[v] = std::max(row_max_[v * side_ + chosen_row_[v]],
                                col_max_[v * side_ + chosen_col_[v]]);
      break;
    case Shape::Enumerated:
    case Shape::Generic: {
      const double* vals = values_.data() + v * n_;
      double worst = 0.0;
      for (std::size_t e : chosen_quorum_[v]) worst = std::max(worst, vals[e]);
      best_value_[v] = worst;
      break;
    }
  }
}

void DeltaEvaluator::rebuild_closest_loads_and_rho() {
  closest_load_.assign(clients_, 0.0);
  for (std::size_t v = 0; v < clients_; ++v) {
    const double w = charge_weight(v);
    for (std::size_t e : chosen_quorum_[v]) {
      closest_load_[placement_.site_of[e]] += w;
    }
  }
  for (std::size_t v = 0; v < clients_; ++v) reprice_closest_client(v);
  sum_client_responses();
  if (candidate_index_ != nullptr) rebuild_charge_index();
}

void DeltaEvaluator::reprice_closest_client(std::size_t v) {
  const double* vals = values_.data() + v * n_;
  double worst = 0.0;
  for (std::size_t e : chosen_quorum_[v]) {
    worst = std::max(worst, vals[e] + alpha_ * closest_load_[placement_.site_of[e]]);
  }
  client_sum_[v] = worst;
}

void DeltaEvaluator::sum_client_responses() {
  base_total_ = 0.0;
  for (std::size_t v = 0; v < clients_; ++v) {
    base_total_ += (client_weight_.empty() ? 1.0 : client_weight_[v]) * client_sum_[v];
  }
}

DeltaEvaluator::ClosestMove DeltaEvaluator::closest_move(std::size_t element,
                                                         std::size_t site) const {
  const bool grid = shape_ == Shape::Grid;
  return ClosestMove{element, placement_.site_of[element], site,
                     grid ? element / side_ : 0, grid ? element % side_ : 0};
}

DeltaEvaluator::ClosestVerdict DeltaEvaluator::classify_closest(
    std::size_t v, const ClosestMove& move, double d_new,
    std::vector<std::size_t>& chosen) const {
  ClosestVerdict verdict;
  const std::size_t element = move.element;
  const std::size_t k = side_;
  const bool contains_u = shape_ == Shape::Grid
                              ? (chosen_row_[v] == move.row || chosen_col_[v] == move.col)
                              : in_best_[v * n_ + element] != 0;
  // Every quorum containing u got strictly worse than the unchanged best.
  if (!contains_u && d_new > best_value_[v]) return verdict;
  switch (shape_) {
    case Shape::Sorted: {
      if (contains_u && (majority_q_ == n_ || d_new < second_value_[v])) {
        verdict.choice = ClosestChoice::KeepsSlot;  // u stays among the q nearest.
        return verdict;
      }
      // The threshold is the q-th smallest patched value, read off the
      // sorted row in O(log n).
      const double* vals = values_.data() + v * n_;
      const double t = patched_sorted_rank(sorted_.data() + v * n_, n_, vals[element],
                                           d_new, majority_q_ - 1);
      majority_select(
          n_, majority_q_, t,
          [&](std::size_t u) { return u == element ? d_new : vals[u]; }, chosen);
      break;
    }
    case Shape::Grid: {
      const GridCell best =
          grid_argmin(row_max_.data() + v * k, col_max_.data() + v * k, k, move.row,
                      std::max(row_excl_[v * n_ + element], d_new), move.col,
                      std::max(col_excl_[v * n_ + element], d_new));
      verdict.row = best.row;
      verdict.col = best.col;
      if (best.row == chosen_row_[v] && best.col == chosen_col_[v]) {
        // The same cell still wins: u keeps its slot in it, or it never
        // held one.
        verdict.choice = contains_u ? ClosestChoice::KeepsSlot : ClosestChoice::Unchanged;
        return verdict;
      }
      for_each_grid_element(k, best.row, best.col,
                            [&](std::size_t e) { chosen.push_back(e); });
      break;
    }
    case Shape::Enumerated:  // Balanced-only; see the constructor.
    case Shape::Generic: {   // Tree's DP tie-breaking is its own.
      static thread_local std::vector<double> tl_row;
      const double* vals = values_.data() + v * n_;
      tl_row.assign(vals, vals + n_);
      tl_row[element] = d_new;
      const quorum::Quorum quorum = system_->best_quorum(tl_row);
      chosen.insert(chosen.end(), quorum.begin(), quorum.end());
      break;
    }
  }
  verdict.choice = ClosestChoice::Rechosen;
  return verdict;
}

template <typename Add>
void DeltaEvaluator::for_each_charge_delta(std::size_t v, ClosestChoice choice,
                                           std::span<const std::size_t> rechosen,
                                           const ClosestMove& move, Add&& add) const {
  const double w = charge_weight(v);
  if (choice == ClosestChoice::KeepsSlot) {
    add(move.old_site, -w);
    add(move.site, w);
  } else if (choice == ClosestChoice::Rechosen) {
    for (std::size_t e : chosen_quorum_[v]) add(placement_.site_of[e], -w);
    for (std::size_t e : rechosen) {
      add(e == move.element ? move.site : placement_.site_of[e], w);
    }
  }
}

double DeltaEvaluator::closest_if_moved(std::size_t element, std::size_t site) const {
  static thread_local std::vector<double> tl_load;
  static thread_local std::vector<ClosestChoice> tl_state;
  static thread_local std::vector<std::size_t> tl_off;
  static thread_local std::vector<std::size_t> tl_len;
  static thread_local std::vector<std::size_t> tl_chosen;

  const bool load = alpha_ != 0.0;
  if (load) tl_load.assign(closest_load_.begin(), closest_load_.end());
  tl_state.assign(clients_, ClosestChoice::Unchanged);
  tl_off.resize(clients_);
  tl_len.resize(clients_);
  tl_chosen.clear();
  const ClosestMove move = closest_move(element, site);

  c_de_closest_full.add();
  std::size_t n_kept = 0;
  std::size_t n_recomputed = 0;
  // Pass 1: classify every client's quorum choice and accumulate the load
  // deltas of the moved charges.
  for (std::size_t v = 0; v < clients_; ++v) {
    const std::size_t off = tl_chosen.size();
    const ClosestChoice choice = classify_closest(v, move, site_rtt(v, site), tl_chosen).choice;
    tl_state[v] = choice;
    if (choice == ClosestChoice::Unchanged) continue;
    if (choice == ClosestChoice::KeepsSlot) {
      ++n_kept;
    } else {
      ++n_recomputed;
      tl_off[v] = off;
      tl_len[v] = tl_chosen.size() - off;
    }
    if (load) {
      for_each_charge_delta(v, choice, {tl_chosen.data() + off, tl_chosen.size() - off},
                            move, [](std::size_t s, double delta) { tl_load[s] += delta; });
    }
  }
  c_de_pruned.add(clients_ - n_kept - n_recomputed);
  c_de_kept.add(n_kept);
  c_de_recomputed.add(n_recomputed);

  // Pass 2: reprice every client's chosen quorum under the candidate loads.
  double total = 0.0;
  for (std::size_t v = 0; v < clients_; ++v) {
    double response;
    if (tl_state[v] == ClosestChoice::Unchanged && !load) {
      response = client_sum_[v];  // Neither distances nor loads changed.
    } else {
      const double d_new = site_rtt(v, site);
      const double* vals = values_.data() + v * n_;
      const std::size_t* ids;
      std::size_t len;
      if (tl_state[v] == ClosestChoice::Rechosen) {
        ids = tl_chosen.data() + tl_off[v];
        len = tl_len[v];
      } else {
        ids = chosen_quorum_[v].data();
        len = chosen_quorum_[v].size();
      }
      double worst = 0.0;
      for (std::size_t i = 0; i < len; ++i) {
        const std::size_t e = ids[i];
        const bool moved = e == element;
        const double d = moved ? d_new : vals[e];
        if (load) {
          const std::size_t s = moved ? site : placement_.site_of[e];
          worst = std::max(worst, d + alpha_ * tl_load[s]);
        } else {
          worst = std::max(worst, d);
        }
      }
      response = worst;
    }
    total += (client_weight_.empty() ? 1.0 : client_weight_[v]) * response;
  }
  return client_weight_.empty() ? total / static_cast<double>(clients_) : total;
}

void DeltaEvaluator::apply_move_closest(std::size_t element, std::size_t site) {
  const ClosestMove move = closest_move(element, site);
  std::vector<std::size_t> rechosen;
  // With charge lists maintained, record the clients whose charge set moves
  // (every client the move does not leave Unchanged) so the reaccumulation
  // below can stay bounded instead of O(clients x |Q|).
  const bool incremental = candidate_index_ != nullptr;
  std::vector<std::size_t> touched_clients;
  std::vector<std::pair<std::size_t, std::size_t>> new_charges;  // (site, v).
  std::vector<std::size_t> affected_sites;
  for (std::size_t v = 0; v < clients_; ++v) {
    const double d_old = values_[v * n_ + element];
    const double d_new = site_rtt(v, site);
    // Classified against the pre-repair tables, exactly as the candidate
    // evaluation saw this move.
    rechosen.clear();
    const ClosestVerdict verdict = classify_closest(v, move, d_new, rechosen);
    const bool touched = incremental && verdict.choice != ClosestChoice::Unchanged;
    if (touched) {
      // Old charges, under the pre-move placement and pre-repair choice.
      touched_clients.push_back(v);
      for (std::size_t e : chosen_quorum_[v]) {
        affected_sites.push_back(placement_.site_of[e]);
      }
    }
    repair_client_tables(v, element, d_old, d_new);
    if (verdict.choice == ClosestChoice::Rechosen) {
      if (shape_ != Shape::Grid) {
        for (std::size_t e : chosen_quorum_[v]) in_best_[v * n_ + e] = 0;
        for (std::size_t e : rechosen) in_best_[v * n_ + e] = 1;
      }
      chosen_quorum_[v].assign(rechosen.begin(), rechosen.end());
    }
    if (shape_ == Shape::Grid && verdict.choice != ClosestChoice::Unchanged) {
      chosen_row_[v] = verdict.row;
      chosen_col_[v] = verdict.col;
    }
    settle_closest_client(v);
    if (touched) {
      // New charges, under the post-move placement and repaired choice.
      for (std::size_t e : chosen_quorum_[v]) {
        const std::size_t s = e == element ? site : placement_.site_of[e];
        new_charges.emplace_back(s, v);
        affected_sites.push_back(s);
      }
    }
  }
  placement_.site_of[element] = site;
  if (incremental) {
    reaccumulate_closest_dirty(touched_clients, new_charges, affected_sites);
  } else {
    rebuild_closest_loads_and_rho();
  }
}

void DeltaEvaluator::attach_candidate_index(const ClientCandidateIndex* index) {
  if (index == nullptr) {
    candidate_index_ = nullptr;
    charge_lists_.clear();
    return;
  }
  if (!closest_) {
    throw std::invalid_argument{
        "DeltaEvaluator: candidate indexes apply to closest-strategy objectives only"};
  }
  if (index->size() != clients_) {
    throw std::invalid_argument{"DeltaEvaluator: candidate index size != site count"};
  }
  candidate_index_ = index;
  rebuild_charge_index();
}

void DeltaEvaluator::rebuild_charge_index() {
  // Site -> charging clients from the current chosen quorums, filled in
  // ascending client order (so each site's charger list is sorted, with one
  // entry per charging element, and the enumeration order is deterministic).
  charge_lists_.assign(clients_, {});
  for (std::size_t v = 0; v < clients_; ++v) {
    for (std::size_t e : chosen_quorum_[v]) {
      charge_lists_[placement_.site_of[e]].push_back(v);
    }
  }
}

void DeltaEvaluator::reaccumulate_closest_dirty(
    std::span<const std::size_t> touched_clients,
    std::vector<std::pair<std::size_t, std::size_t>>& new_charges,
    std::vector<std::size_t>& affected_sites) {
  std::sort(affected_sites.begin(), affected_sites.end());
  affected_sites.erase(std::unique(affected_sites.begin(), affected_sites.end()),
                       affected_sites.end());
  // Group the new charges by site; stable keeps the ascending client order
  // the apply loop appended them in, so merged lists stay client-sorted.
  std::stable_sort(new_charges.begin(), new_charges.end(),
                   [](const std::pair<std::size_t, std::size_t>& a,
                      const std::pair<std::size_t, std::size_t>& b) {
                     return a.first < b.first;
                   });

  if (dirty_client_.size() != clients_) {
    dirty_client_.assign(clients_, 0);
    reprice_client_.assign(clients_, 0);
  }
  for (std::size_t v : touched_clients) dirty_client_[v] = 1;

  // Per affected site: drop the touched clients' old entries from the charge
  // list, merge their new entries in, and re-sum the weighted load over the
  // merged list. The list is ascending with per-element multiplicity, which
  // is exactly the order the full reaccumulation adds the same weights in —
  // the per-site sums are bitwise identical to rebuild_closest_loads_and_rho.
  std::vector<std::size_t> merged;
  std::size_t cursor = 0;
  for (std::size_t s : affected_sites) {
    const std::size_t begin = cursor;
    while (cursor < new_charges.size() && new_charges[cursor].first == s) ++cursor;
    const std::vector<std::size_t>& old_list = charge_lists_[s];
    merged.clear();
    std::size_t i = 0;
    std::size_t j = begin;
    while (i < old_list.size() || j < cursor) {
      if (i < old_list.size() && dirty_client_[old_list[i]] != 0) {
        ++i;  // Its fresh entries (if any) arrive from new_charges.
      } else if (j == cursor ||
                 (i < old_list.size() && old_list[i] < new_charges[j].second)) {
        merged.push_back(old_list[i++]);
      } else {
        merged.push_back(new_charges[j++].second);
      }
    }
    charge_lists_[s] = merged;
    double load = 0.0;
    for (std::size_t v : charge_lists_[s]) load += charge_weight(v);
    closest_load_[s] = load;
  }

  // Reprice exactly the clients whose response inputs changed: a repaired
  // chosen quorum / moved element, or a charged site whose load moved. The
  // recomputed values are bitwise the full pass's (same expression, same
  // inputs); untouched clients keep values with bitwise-unchanged inputs.
  for (std::size_t v : touched_clients) reprice_client_[v] = 1;
  for (std::size_t s : affected_sites) {
    for (std::size_t v : charge_lists_[s]) reprice_client_[v] = 1;
  }
  for (std::size_t v = 0; v < clients_; ++v) {
    if (reprice_client_[v] != 0) reprice_closest_client(v);
  }
  sum_client_responses();

  for (std::size_t v : touched_clients) dirty_client_[v] = 0;
  std::fill(reprice_client_.begin(), reprice_client_.end(), 0);
}

double DeltaEvaluator::closest_if_moved_indexed(std::size_t element,
                                                std::size_t site) const {
  // Epoch-marked sparse scratch: per-candidate state is only written for the
  // clients/sites actually touched, so a candidate costs output-sensitive
  // time — never an O(n) clear. Thread-local for the parallel scan.
  struct Scratch {
    std::uint64_t epoch = 0;
    std::vector<std::uint64_t> client_mark;   // classified this epoch?
    std::vector<ClosestChoice> client_state;  // valid when mark == epoch.
    std::vector<std::size_t> flip_off;        // state 2: slice of `chosen`.
    std::vector<std::size_t> flip_len;
    std::vector<std::size_t> chosen;          // concatenated flip quorums.
    std::vector<std::uint64_t> site_mark;     // load delta valid this epoch?
    std::vector<double> load_delta;
    std::vector<std::size_t> touched;         // sites with a load delta.
    std::vector<std::uint64_t> reprice_mark;
    std::vector<std::size_t> reprice;         // clients to reprice.
  };
  static thread_local Scratch sc;
  if (sc.client_mark.size() != clients_) {
    sc.client_mark.assign(clients_, 0);
    sc.client_state.assign(clients_, ClosestChoice::Unchanged);
    sc.flip_off.assign(clients_, 0);
    sc.flip_len.assign(clients_, 0);
    sc.site_mark.assign(clients_, 0);
    sc.load_delta.assign(clients_, 0.0);
    sc.reprice_mark.assign(clients_, 0);
  }
  ++sc.epoch;
  sc.chosen.clear();
  sc.touched.clear();
  sc.reprice.clear();

  c_de_closest_indexed.add();
  std::size_t n_scanned = 0;
  std::size_t n_kept = 0;
  std::size_t n_recomputed = 0;

  const ClosestMove move = closest_move(element, site);
  const bool load = alpha_ != 0.0;

  const auto touch = [&](std::size_t s, double delta) {
    if (sc.site_mark[s] != sc.epoch) {
      sc.site_mark[s] = sc.epoch;
      sc.load_delta[s] = 0.0;
      sc.touched.push_back(s);
    }
    sc.load_delta[s] += delta;
  };
  const auto mark_reprice = [&](std::size_t v) {
    if (sc.reprice_mark[v] != sc.epoch) {
      sc.reprice_mark[v] = sc.epoch;
      sc.reprice.push_back(v);
    }
  };

  // The full scan's classification (classify_closest), applied only to the
  // clients that can flip.
  const auto classify = [&](std::size_t v) {
    if (sc.client_mark[v] == sc.epoch) return;
    sc.client_mark[v] = sc.epoch;
    ++n_scanned;
    const std::size_t off = sc.chosen.size();
    const ClosestChoice choice = classify_closest(v, move, site_rtt(v, site), sc.chosen).choice;
    sc.client_state[v] = choice;
    if (choice == ClosestChoice::Unchanged) return;
    if (choice == ClosestChoice::KeepsSlot) {
      ++n_kept;
    } else {
      ++n_recomputed;
      sc.flip_off[v] = off;
      sc.flip_len[v] = sc.chosen.size() - off;
    }
    if (load) {
      for_each_charge_delta(v, choice, {sc.chosen.data() + off, sc.chosen.size() - off},
                            move, touch);
    }
    mark_reprice(v);
  };

  // A flip needs u to leave (the client charges u's current site) or the
  // new site to undercut m1 (approximated by: the client's candidate list
  // contains it, see client_index.hpp).
  for (std::size_t v : charge_lists_[move.old_site]) classify(v);
  for (std::size_t v : candidate_index_->clients_of(site)) classify(v);
  c_de_pruned.add(n_scanned - n_kept - n_recomputed);
  c_de_kept.add(n_kept);
  c_de_recomputed.add(n_recomputed);

  // Clients charging a load-touched site reprice even when their choice is
  // provably unchanged — the load term under their chosen quorum moved.
  // Sites whose deltas cancelled to exactly 0.0 change nothing: their
  // chargers would reprice to bitwise the same response, so skip them.
  if (load) {
    for (std::size_t s : sc.touched) {
      if (sc.load_delta[s] == 0.0) continue;
      for (std::size_t v : charge_lists_[s]) mark_reprice(v);
    }
  }

  // Reprice only the affected clients against the patched loads; everyone
  // else contributes their cached response through base_total_.
  double total = base_total_;
  for (std::size_t v : sc.reprice) {
    const double d_new = site_rtt(v, site);
    const double* vals = values_.data() + v * n_;
    const ClosestChoice state =
        sc.client_mark[v] == sc.epoch ? sc.client_state[v] : ClosestChoice::Unchanged;
    const std::size_t* ids;
    std::size_t len;
    if (state == ClosestChoice::Rechosen) {
      ids = sc.chosen.data() + sc.flip_off[v];
      len = sc.flip_len[v];
    } else {
      ids = chosen_quorum_[v].data();
      len = chosen_quorum_[v].size();
    }
    double worst = 0.0;
    for (std::size_t i = 0; i < len; ++i) {
      const std::size_t e = ids[i];
      const bool moved = e == element;
      const double d = moved ? d_new : vals[e];
      if (load) {
        const std::size_t s = moved ? site : placement_.site_of[e];
        const double site_load =
            closest_load_[s] + (sc.site_mark[s] == sc.epoch ? sc.load_delta[s] : 0.0);
        worst = std::max(worst, d + alpha_ * site_load);
      } else {
        worst = std::max(worst, d);
      }
    }
    total += (client_weight_.empty() ? 1.0 : client_weight_[v]) *
             (worst - client_sum_[v]);
  }
  return client_weight_.empty() ? total / static_cast<double>(clients_) : total;
}

void DeltaEvaluator::apply_move(std::size_t element, std::size_t site) {
  if (element >= n_ || site >= clients_) {
    throw std::out_of_range{"DeltaEvaluator::apply_move: element or site out of range"};
  }
  const std::size_t old_site = placement_.site_of[element];
  if (site != old_site && std::find(placement_.site_of.begin(), placement_.site_of.end(),
                                    site) != placement_.site_of.end()) {
    throw std::invalid_argument{
        "DeltaEvaluator::apply_move: the target site hosts another element"};
  }
  c_de_apply.add();
  if (site == old_site) {
    // No-op move: nothing to repair.
  } else if (closest_) {
    apply_move_closest(element, site);
  } else {
    const double add = load_term(element);
    placement_.site_of[element] = site;
    // Single-coordinate repair of every client's tables.
    base_total_ = 0.0;
    for (std::size_t v = 0; v < clients_; ++v) {
      repair_client_tables(v, element, site_rtt(v, old_site) + add, site_rtt(v, site) + add);
      settle_balanced_client(v);
    }
  }
#if QP_PARITY_AUDIT_ENABLED
  // Parity against the naive objective on any space: the repaired base must
  // match a full re-evaluation (summation order differs, hence the
  // tolerance). Armed at QP_CHECK_LEVEL=2 (the asan preset), not by build
  // type.
  QP_PARITY_ASSERT(objective(), objective_->evaluate(*space_, *system_, placement_), 1e-9,
                   "apply_move: incrementally repaired objective diverged from a "
                   "fresh evaluation of the moved placement");
#endif
}

}  // namespace qp::core
