#include "lp/revised_simplex.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace qp::lp {

namespace {

// Solver telemetry: totals across solves (iterations also split out for
// phase 1, the part a crash or warm seed is meant to shorten) plus the
// largest eta file any single factorization carried (the fill the
// ftran/btran sweeps pay for).
const obs::Counter c_rs_solves = obs::counter("lp.revised.solves");
const obs::Counter c_rs_iterations = obs::counter("lp.revised.iterations");
const obs::Counter c_rs_phase1_iterations = obs::counter("lp.revised.phase1_iterations");
const obs::Counter c_rs_refactorizations =
    obs::counter("lp.revised.refactorizations");
const obs::Gauge g_rs_eta_len_max = obs::gauge("lp.revised.eta_len_max");

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

/// Feasibility / optimality tolerance on reduced costs and row activity.
constexpr double kTolerance = 1e-9;
/// Minimum pivot magnitude accepted in the ratio test.
constexpr double kPivotTolerance = 1e-8;
/// Pivots between scheduled refactorizations of the basis.
constexpr std::size_t kRefactorInterval = 100;
/// Consecutive degenerate pivots before pricing switches to Bland's rule.
constexpr std::size_t kDegenerateSwitch = 40;

/// The constraint columns in compressed sparse column form: column j's
/// nonzeros are (row[k], value[k]) for k in [start[j], start[j + 1]), in the
/// order the problem listed them. One flat array pair instead of a vector
/// per column keeps the pricing sweep on contiguous memory.
struct CscColumns {
  std::vector<std::size_t> start{0};
  std::vector<std::uint32_t> row;
  std::vector<double> value;

  [[nodiscard]] std::size_t size() const noexcept { return start.size() - 1; }
  void push(std::size_t r, double v) {
    row.push_back(static_cast<std::uint32_t>(r));
    value.push_back(v);
  }
  /// Ends the column whose entries were pushed since the last call.
  void close() { start.push_back(row.size()); }
};

/// One nonzero of an L or U column. For L the index is an original row; for
/// U it is an earlier elimination step.
struct LuEntry {
  std::size_t index = 0;
  double value = 0.0;
};

/// Sparse LU factorization of the basis via Gilbert–Peierls left-looking
/// elimination with partial pivoting. Pivot ties break toward the lowest
/// original row index, so the factorization (and everything downstream) is
/// deterministic for a given basis.
class SparseLu {
 public:
  /// Factors B whose k-th column is columns[basis[k]]. Returns false when
  /// the best available pivot falls below `singular_tol` (singular basis).
  [[nodiscard]] bool factor(const CscColumns& columns, const std::vector<std::size_t>& basis,
                            std::size_t m, double singular_tol) {
    m_ = m;
    pivot_row_.assign(m, kNone);
    row_step_.assign(m, kNone);
    // The L/U column vectors keep their capacity from the last factorization.
    l_cols_.resize(m);
    u_cols_.resize(m);
    for (std::size_t k = 0; k < m; ++k) {
      l_cols_[k].clear();
      u_cols_[k].clear();
    }
    u_diag_.assign(m, 0.0);
    work_.assign(m, 0.0);
    mark_.assign(m, 0);
    reached_.assign((m + 63) / 64, 0);
    touched_.clear();
    touched_.reserve(m);

    for (std::size_t k = 0; k < m; ++k) {
      touched_.clear();
      const std::size_t end = columns.start[basis[k] + 1];
      for (std::size_t e = columns.start[basis[k]]; e < end; ++e) {
        const std::size_t row = columns.row[e];
        work_[row] += columns.value[e];
        touch(row);
      }
      // Eliminate with the finished steps the column reaches, in ascending
      // order; a step whose pivot-row value is exactly zero contributes
      // nothing and is skipped. A step s only adds rows pivotal at later
      // steps, so the bits set while draining word s / 64 all lie above s
      // and the drain stays ascending. Unreached steps hold exactly zero, so
      // this is the same elimination as a scan of every step below k.
      for (std::size_t word = 0; word < (k + 63) / 64; ++word) {
        while (reached_[word] != 0) {
          const std::size_t s =
              word * 64 + static_cast<std::size_t>(std::countr_zero(reached_[word]));
          reached_[word] &= reached_[word] - 1;
          const double xs = work_[pivot_row_[s]];
          if (xs == 0.0) continue;
          u_cols_[k].push_back({s, xs});
          for (const LuEntry& l : l_cols_[s]) {
            work_[l.index] -= l.value * xs;
            touch(l.index);
          }
        }
      }
      // Partial pivot among the not-yet-pivotal rows of this column. The
      // (magnitude, lowest-row) criterion is a total order, so the choice
      // does not depend on the order rows were touched.
      std::size_t pivot = kNone;
      double best = 0.0;
      for (std::size_t row : touched_) {
        if (row_step_[row] != kNone) continue;
        const double magnitude = std::abs(work_[row]);
        if (magnitude > best || (pivot != kNone && magnitude == best && row < pivot)) {
          best = magnitude;
          pivot = row;
        }
      }
      if (pivot == kNone || best < singular_tol) {
        clear_touched();
        return false;
      }
      const double diag = work_[pivot];
      u_diag_[k] = diag;
      for (std::size_t row : touched_) {
        if (row_step_[row] != kNone || row == pivot) continue;
        const double value = work_[row];
        if (value != 0.0) l_cols_[k].push_back({row, value / diag});
      }
      pivot_row_[k] = pivot;
      row_step_[pivot] = k;
      clear_touched();
    }
    return true;
  }

  /// Solves B w = rhs. `rhs` is a dense vector in original row space; it is
  /// consumed (zeroed) by the call. `out` receives the solution in position
  /// space: out[k] multiplies basis column k.
  void solve(std::vector<double>& rhs, std::vector<double>& out) const {
    for (std::size_t k = 0; k < m_; ++k) {
      const double xs = rhs[pivot_row_[k]];
      if (xs == 0.0) continue;
      for (const LuEntry& l : l_cols_[k]) rhs[l.index] -= l.value * xs;
    }
    out.resize(m_);
    for (std::size_t k = 0; k < m_; ++k) out[k] = rhs[pivot_row_[k]];
    std::fill(rhs.begin(), rhs.end(), 0.0);
    for (std::size_t k = m_; k-- > 0;) {
      const double value = out[k] / u_diag_[k];
      out[k] = value;
      if (value != 0.0) {
        for (const LuEntry& u : u_cols_[k]) out[u.index] -= u.value * value;
      }
    }
  }

  /// Solves B^T y = c. `c` is in position space (c[k] = cost of basis column
  /// k); `y` comes back in original row space. `scratch` is resized to m.
  void solve_transpose(const std::vector<double>& c, std::vector<double>& y,
                       std::vector<double>& scratch) const {
    scratch.resize(m_);
    for (std::size_t k = 0; k < m_; ++k) {
      double acc = c[k];
      for (const LuEntry& u : u_cols_[k]) acc -= u.value * scratch[u.index];
      scratch[k] = acc / u_diag_[k];
    }
    y.assign(m_, 0.0);
    for (std::size_t k = 0; k < m_; ++k) y[pivot_row_[k]] = scratch[k];
    for (std::size_t k = m_; k-- > 0;) {
      double acc = y[pivot_row_[k]];
      for (const LuEntry& l : l_cols_[k]) acc -= l.value * y[l.index];
      y[pivot_row_[k]] = acc;
    }
  }

 private:
  /// Adds `row` to this column's nonzero pattern; a row already pivotal
  /// marks its step as reached.
  void touch(std::size_t row) {
    if (mark_[row] != 0) return;
    mark_[row] = 1;
    touched_.push_back(row);
    const std::size_t step = row_step_[row];
    if (step != kNone) reached_[step / 64] |= std::uint64_t{1} << (step % 64);
  }

  void clear_touched() {
    for (std::size_t row : touched_) {
      work_[row] = 0.0;
      mark_[row] = 0;
    }
    touched_.clear();
  }

  std::size_t m_ = 0;
  std::vector<std::size_t> pivot_row_;  // Step -> original row.
  std::vector<std::size_t> row_step_;   // Original row -> step (kNone until pivotal).
  std::vector<std::vector<LuEntry>> l_cols_;
  std::vector<std::vector<LuEntry>> u_cols_;
  std::vector<double> u_diag_;
  // Factorization scratch.
  std::vector<double> work_;
  std::vector<char> mark_;
  std::vector<std::size_t> touched_;
  std::vector<std::uint64_t> reached_;  // Bitset of steps the column reaches.
};

/// A product-form eta transformation: after a pivot at basis position `row`
/// with spike w = B^-1 a_entering, the new inverse is E B^-1 with E defined
/// by (pivot = w[row], entries = the other nonzeros of w).
struct Eta {
  std::size_t row = 0;
  double pivot = 0.0;
  std::vector<LuEntry> entries;  // (position, w[position]) for position != row.
};

/// Internal solver state over the normalized problem
///   min c^T x,  A x = b,  x >= 0,  b >= 0,
/// with columns ordered structural, then slack/surplus, then one artificial
/// per row (so any basis seed can be patched row-locally).
class RevisedState {
 public:
  RevisedState(LpProblem& problem, const SimplexOptions& options)
      : options_(options),
        rows_(problem.row_count()),
        structural_(problem.variable_count()) {
    problem.consolidate();
    if (rows_ > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error{"RevisedSimplexSolver: more rows than 32-bit indices hold"};
    }

    row_sign_.assign(rows_, 1.0);
    b_.assign(rows_, 0.0);
    sense_.assign(rows_, RowSense::Equal);
    for (std::size_t i = 0; i < rows_; ++i) {
      double rhs = problem.rhs(i);
      RowSense s = problem.row_sense(i);
      if (rhs < 0.0) {
        rhs = -rhs;
        row_sign_[i] = -1.0;
        if (s == RowSense::LessEqual) {
          s = RowSense::GreaterEqual;
        } else if (s == RowSense::GreaterEqual) {
          s = RowSense::LessEqual;
        }
      }
      b_[i] = rhs;
      sense_[i] = s;
    }

    std::size_t nonzeros = 0;
    for (std::size_t j = 0; j < structural_; ++j) nonzeros += problem.column(j).size();
    columns_.start.reserve(structural_ + 2 * rows_ + 1);
    columns_.row.reserve(nonzeros + 2 * rows_);
    columns_.value.reserve(nonzeros + 2 * rows_);
    cost_.reserve(structural_ + 2 * rows_);
    for (std::size_t j = 0; j < structural_; ++j) {
      for (const ColumnEntry& entry : problem.column(j)) {
        columns_.push(entry.row, entry.value * row_sign_[entry.row]);
      }
      columns_.close();
      cost_.push_back(problem.objective_coefficient(j));
    }

    // Slack (<=) and surplus (>=) columns.
    slack_col_.assign(rows_, kNone);
    for (std::size_t i = 0; i < rows_; ++i) {
      if (sense_[i] == RowSense::LessEqual) {
        slack_col_[i] = add_unit_column(i, 1.0);
      } else if (sense_[i] == RowSense::GreaterEqual) {
        slack_col_[i] = add_unit_column(i, -1.0);
      }
    }

    // One artificial per row (not only the rows whose cold basis needs one):
    // warm-start imports patch unusable seed entries with the artificial of
    // the affected row, whatever its sense. Artificials are never priced.
    first_artificial_ = columns_.size();
    artificial_col_.assign(rows_, kNone);
    for (std::size_t i = 0; i < rows_; ++i) {
      artificial_col_[i] = add_unit_column(i, 1.0);
    }

    basis_.assign(rows_, kNone);
    in_basis_.assign(columns_.size(), false);
    xb_.assign(rows_, 0.0);
    fwork_.assign(rows_, 0.0);
  }

  [[nodiscard]] SolveResult run() {
    SolveResult result;
    const std::size_t limit = options_.max_iterations != 0
                                  ? options_.max_iterations
                                  : 50 * (rows_ + columns_.size()) + 1000;

    // Seed the basis: warm when a usable initial basis was supplied (a
    // singular seed falls back to cold), cold otherwise.
    bool seeded = false;
    if (options_.initial_basis.basic.size() == rows_) {
      import_basis(options_.initial_basis);
      seeded = refactorize();
    }
    if (!seeded) {
      cold_basis();
      if (!refactorize()) {
        result.status = SolveStatus::IterationLimit;
        return result;
      }
    }

    // Phase 1 (composite): minimize residual artificial values plus the
    // total negativity of the basic solution. For the cold all-slack /
    // all-artificial basis this is exactly the textbook artificial phase 1;
    // for a warm seed it repairs primal infeasibility in place.
    if (infeasibility() > kTolerance) {
      const SolveStatus status = optimize(/*phase1=*/true, limit, result.iterations);
      phase1_iterations_ = result.iterations;
      if (status == SolveStatus::IterationLimit || status == SolveStatus::Unbounded) {
        // Phase-1 objective is bounded below by zero, so "unbounded" here
        // means the ratio test broke down numerically.
        result.status = SolveStatus::IterationLimit;
        return result;
      }
      const double residual = infeasibility();
      if (residual > 1e-7) {
        result.status = SolveStatus::Infeasible;
        result.objective = residual;
        return result;
      }
    }

    const SolveStatus status = optimize(/*phase1=*/false, limit, result.iterations);
    result.status = status;
    if (status != SolveStatus::Optimal) return result;

    result.values.assign(structural_, 0.0);
    for (std::size_t i = 0; i < rows_; ++i) {
      if (basis_[i] < structural_) {
        result.values[basis_[i]] = std::max(0.0, xb_[i]);
      }
    }
    result.objective = 0.0;
    for (std::size_t j = 0; j < structural_; ++j) {
      result.objective += cost_[j] * result.values[j];
    }

    std::vector<double> cb(rows_, 0.0);
    for (std::size_t i = 0; i < rows_; ++i) {
      if (basis_[i] < structural_) cb[i] = cost_[basis_[i]];
    }
    std::vector<double> y;
    btran(cb, y);
    result.duals.assign(rows_, 0.0);
    for (std::size_t i = 0; i < rows_; ++i) result.duals[i] = y[i] * row_sign_[i];

    result.basis.basic.resize(rows_);
    for (std::size_t i = 0; i < rows_; ++i) {
      const std::size_t var = basis_[i];
      result.basis.basic[i] =
          var < structural_ ? var : Basis::slack_of(unit_row_of_[var - structural_]);
    }
    return result;
  }

  [[nodiscard]] std::size_t refactor_count() const noexcept {
    return refactor_count_;
  }
  [[nodiscard]] std::size_t phase1_iterations() const noexcept {
    return phase1_iterations_;
  }
  /// Largest eta file any factorization carried, counting the one live at
  /// exit (short solves may never hit the refactor schedule).
  [[nodiscard]] std::size_t eta_len_max() const noexcept {
    return std::max(eta_len_max_, etas_.size());
  }

 private:
  std::size_t add_unit_column(std::size_t row, double value) {
    columns_.push(row, value);
    columns_.close();
    cost_.push_back(0.0);
    unit_row_of_.push_back(row);
    return columns_.size() - 1;
  }

  /// Cold start: slack basic on <= rows, artificial on = and >= rows (the
  /// same all-(+1)-unit basis the dense solver starts from).
  void cold_basis() {
    std::fill(in_basis_.begin(), in_basis_.end(), false);
    for (std::size_t i = 0; i < rows_; ++i) {
      basis_[i] =
          sense_[i] == RowSense::LessEqual ? slack_col_[i] : artificial_col_[i];
      in_basis_[basis_[i]] = true;
    }
  }

  /// Maps a basis seed onto this problem's columns. Entries that are out of
  /// range, duplicated, or name the slack of an equality row are patched
  /// with the artificial of their row.
  void import_basis(const Basis& seed) {
    std::fill(in_basis_.begin(), in_basis_.end(), false);
    for (std::size_t i = 0; i < rows_; ++i) basis_[i] = kNone;
    for (std::size_t i = 0; i < rows_; ++i) {
      const std::size_t code = seed.basic[i];
      std::size_t col = kNone;
      if (!Basis::is_slack(code)) {
        if (code < structural_) col = code;
      } else {
        const std::size_t row = Basis::slack_row(code);
        if (row < rows_ && slack_col_[row] != kNone) col = slack_col_[row];
      }
      if (col != kNone && !in_basis_[col]) {
        basis_[i] = col;
        in_basis_[col] = true;
      }
    }
    for (std::size_t i = 0; i < rows_; ++i) {
      if (basis_[i] == kNone) {
        basis_[i] = artificial_col_[i];
        in_basis_[basis_[i]] = true;
      }
    }
  }

  /// Refactorizes the basis and recomputes xB; drops the eta file. Returns
  /// false on a singular basis.
  [[nodiscard]] bool refactorize() {
    ++refactor_count_;
    eta_len_max_ = std::max(eta_len_max_, etas_.size());
    if (!lu_.factor(columns_, basis_, rows_, 1e-12)) return false;
    etas_.clear();
    eta_nnz_ = 0;
    std::copy(b_.begin(), b_.end(), fwork_.begin());
    lu_.solve(fwork_, xb_);
    return true;
  }

  /// w = B^-1 a_column in position space.
  void ftran(std::size_t column, std::vector<double>& w) {
    const std::size_t end = columns_.start[column + 1];
    for (std::size_t e = columns_.start[column]; e < end; ++e) {
      fwork_[columns_.row[e]] += columns_.value[e];
    }
    lu_.solve(fwork_, w);
    for (const Eta& eta : etas_) {
      const double t = w[eta.row] / eta.pivot;
      if (t != 0.0) {
        for (const LuEntry& entry : eta.entries) w[entry.index] -= entry.value * t;
      }
      w[eta.row] = t;
    }
  }

  /// y in original row space with y^T B = c^T (c in position space).
  void btran(const std::vector<double>& c, std::vector<double>& y) {
    bwork_ = c;
    for (std::size_t e = etas_.size(); e-- > 0;) {
      const Eta& eta = etas_[e];
      double acc = bwork_[eta.row];
      for (const LuEntry& entry : eta.entries) acc -= entry.value * bwork_[entry.index];
      bwork_[eta.row] = acc / eta.pivot;
    }
    lu_.solve_transpose(bwork_, y, bscratch_);
  }

  /// Residual primal infeasibility: basic artificial mass plus the total
  /// negativity of the basic solution (warm seeds can start below zero).
  [[nodiscard]] double infeasibility() const {
    double total = 0.0;
    for (std::size_t i = 0; i < rows_; ++i) {
      if (xb_[i] < 0.0) {
        total -= xb_[i];
      } else if (basis_[i] >= first_artificial_) {
        total += xb_[i];
      }
    }
    return total;
  }

  /// Reduced cost of a nonbasic column for the current duals.
  [[nodiscard]] double reduced_cost(std::size_t column, bool phase1,
                                    const std::vector<double>& y) const {
    double reduced = phase1 ? 0.0 : cost_[column];
    const std::size_t end = columns_.start[column + 1];
    for (std::size_t e = columns_.start[column]; e < end; ++e) {
      reduced -= y[columns_.row[e]] * columns_.value[e];
    }
    return reduced;
  }

  /// Dantzig pricing over a rotating partial window: a pass settles for the
  /// best reduced cost once it has examined max(256, n / 8) columns and
  /// found an improving one. Bland mode scans from the front and takes the
  /// first improving column. Artificials are never candidates. Returns
  /// kNone when no reduced cost beats -kTolerance after a full sweep
  /// (optimality for the current phase).
  [[nodiscard]] std::size_t price(const std::vector<double>& y, bool phase1, bool bland) {
    const std::size_t n = first_artificial_;
    if (n == 0) return kNone;
    if (bland) {
      for (std::size_t j = 0; j < n; ++j) {
        if (in_basis_[j]) continue;
        if (reduced_cost(j, phase1, y) < -kTolerance) return j;
      }
      return kNone;
    }
    const std::size_t window = std::max<std::size_t>(256, n / 8);
    double best = -kTolerance;
    std::size_t best_column = kNone;
    std::size_t j = cursor_ < n ? cursor_ : 0;
    for (std::size_t scanned = 0; scanned < n; ++scanned) {
      if (!in_basis_[j]) {
        const double reduced = reduced_cost(j, phase1, y);
        if (reduced < best) {
          best = reduced;
          best_column = j;
        }
      }
      ++j;
      if (j == n) j = 0;
      if (best_column != kNone && scanned + 1 >= window) break;
    }
    cursor_ = j;
    return best_column;
  }

  SolveStatus optimize(bool phase1, std::size_t limit, std::size_t& iterations) {
    std::vector<double> w(rows_, 0.0);
    std::vector<double> y;
    std::vector<double> cb(rows_, 0.0);
    std::size_t degenerate_run = 0;
    bool bland = false;

    for (;;) {
      if (phase1 && infeasibility() <= kTolerance) return SolveStatus::Optimal;
      if (iterations >= limit) return SolveStatus::IterationLimit;
      ++iterations;

      // Basic costs. Phase 1 prices the composite objective: +1 for basic
      // artificials, -1 for any basic variable below zero (its increase
      // reduces infeasibility), 0 otherwise.
      for (std::size_t i = 0; i < rows_; ++i) {
        if (phase1) {
          if (xb_[i] < -kTolerance) {
            cb[i] = -1.0;
          } else {
            cb[i] = basis_[i] >= first_artificial_ ? 1.0 : 0.0;
          }
        } else {
          cb[i] = basis_[i] < structural_ ? cost_[basis_[i]] : 0.0;
        }
      }
      btran(cb, y);

      const std::size_t entering = price(y, phase1, bland);
      if (entering == kNone) return SolveStatus::Optimal;

      ftran(entering, w);

      // Ratio test. Feasible rows block when their variable hits zero from
      // above; phase-1 infeasible rows block when theirs reaches zero from
      // below (the composite objective's slope changes there); zero-level
      // basic artificials may leave on a degenerate pivot regardless of the
      // sign of w_i, exactly as in the dense solver.
      std::size_t leaving = kNone;
      double best_ratio = kInf;
      bool leaving_is_artificial = false;
      for (std::size_t i = 0; i < rows_; ++i) {
        const bool artificial = basis_[i] >= first_artificial_;
        const bool infeasible = phase1 && xb_[i] < -kTolerance;
        double ratio = kInf;
        if (!infeasible && w[i] > kPivotTolerance) {
          ratio = std::max(0.0, xb_[i]) / w[i];
        } else if (infeasible && w[i] < -kPivotTolerance) {
          ratio = xb_[i] / w[i];
        } else if (artificial && !infeasible && xb_[i] <= kTolerance &&
                   std::abs(w[i]) > kPivotTolerance) {
          ratio = 0.0;
        } else {
          continue;
        }
        const bool better =
            ratio < best_ratio - 1e-12 ||
            (ratio <= best_ratio + 1e-12 &&
             ((artificial && !leaving_is_artificial) ||
              (artificial == leaving_is_artificial &&
               (leaving == kNone || basis_[i] < basis_[leaving]))));
        if (better) {
          best_ratio = ratio;
          leaving = i;
          leaving_is_artificial = artificial;
        }
      }
      if (leaving == kNone) return SolveStatus::Unbounded;

      // Pivot: update xB, append the eta, swap the basis columns.
      const double theta = best_ratio;
      for (std::size_t i = 0; i < rows_; ++i) {
        if (i != leaving) xb_[i] -= theta * w[i];
      }
      xb_[leaving] = theta;

      Eta eta;
      eta.row = leaving;
      eta.pivot = w[leaving];
      for (std::size_t i = 0; i < rows_; ++i) {
        if (i != leaving && w[i] != 0.0) eta.entries.push_back({i, w[i]});
      }
      eta_nnz_ += eta.entries.size();
      etas_.push_back(std::move(eta));

      in_basis_[basis_[leaving]] = false;
      basis_[leaving] = entering;
      in_basis_[entering] = true;

      if (theta <= kTolerance) {
        if (++degenerate_run > kDegenerateSwitch) bland = true;
      } else {
        degenerate_run = 0;
        bland = false;
      }

      // Refactorize on the pivot-count schedule or when the eta file's fill
      // outgrows a few dense columns' worth of work per solve.
      if (etas_.size() >= kRefactorInterval ||
          eta_nnz_ > 8 * rows_ + 64) {
        if (!refactorize()) return SolveStatus::IterationLimit;
      }
    }
  }

  SimplexOptions options_;
  std::size_t rows_;
  std::size_t structural_;
  std::size_t first_artificial_ = 0;

  CscColumns columns_;
  std::vector<double> cost_;
  std::vector<double> b_;
  std::vector<double> row_sign_;
  std::vector<RowSense> sense_;
  std::vector<std::size_t> slack_col_;       // Row -> slack/surplus column (kNone for =).
  std::vector<std::size_t> artificial_col_;  // Row -> artificial column.
  std::vector<std::size_t> unit_row_of_;     // (column - structural_) -> its row.

  std::vector<std::size_t> basis_;
  std::vector<bool> in_basis_;
  std::vector<double> xb_;

  SparseLu lu_;
  std::vector<Eta> etas_;
  std::size_t eta_nnz_ = 0;
  // Telemetry only (exported through obs by solve()); never read by the
  // pivoting logic.
  std::size_t refactor_count_ = 0;
  std::size_t phase1_iterations_ = 0;
  std::size_t eta_len_max_ = 0;
  std::size_t cursor_ = 0;  // Partial-pricing rotation state.

  std::vector<double> fwork_;    // Dense original-row scratch, kept zeroed.
  std::vector<double> bwork_;    // btran position-space scratch.
  std::vector<double> bscratch_;
};

/// One solve from the seed in `options` (cold when it is empty), with the
/// per-attempt telemetry.
SolveResult solve_attempt(LpProblem& problem, const SimplexOptions& options) {
  QP_TRACE_SPAN("lp.revised.solve");
  RevisedState state{problem, options};
  SolveResult result = state.run();
  c_rs_solves.add();
  c_rs_iterations.add(result.iterations);
  c_rs_phase1_iterations.add(state.phase1_iterations());
  c_rs_refactorizations.add(state.refactor_count());
  g_rs_eta_len_max.set(static_cast<double>(state.eta_len_max()));
  return result;
}

}  // namespace

SolveResult RevisedSimplexSolver::solve(LpProblem& problem) const {
  if (problem.row_count() == 0) {
    // Degenerate case: minimize over x >= 0 with no constraints.
    SolveResult result;
    result.values.assign(problem.variable_count(), 0.0);
    bool unbounded = false;
    for (std::size_t j = 0; j < problem.variable_count(); ++j) {
      if (problem.objective_coefficient(j) < 0.0) unbounded = true;
    }
    result.status = unbounded ? SolveStatus::Unbounded : SolveStatus::Optimal;
    if (unbounded) result.values.clear();
    return result;
  }
  SolveResult result = solve_attempt(problem, options_);
  if (result.status == SolveStatus::IterationLimit && !options_.initial_basis.empty()) {
    // A stale warm basis can stall on a reshaped LP; retry once from cold.
    SimplexOptions cold = options_;
    cold.initial_basis = {};
    const std::size_t warm_iterations = result.iterations;
    result = solve_attempt(problem, cold);
    result.iterations += warm_iterations;
    result.warm_start_stalled = true;
  }
  return result;
}

}  // namespace qp::lp
