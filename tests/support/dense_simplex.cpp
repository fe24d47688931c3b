#include "support/dense_simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace qp::lp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The same values as lp/revised_simplex.cpp's, so both solvers stop on the
// same optimality and pivot tests.
constexpr double kTolerance = 1e-9;
constexpr double kPivotTolerance = 1e-8;
constexpr std::size_t kRefactorInterval = 100;
constexpr std::size_t kDegenerateSwitch = 40;

/// Internal tableau-free simplex state over the normalized problem
///   min c^T x,  A x = b,  x >= 0,  b >= 0,
/// where columns 0..n-1 are structural, then slacks/surpluses, then
/// artificials.
class SimplexState {
 public:
  SimplexState(LpProblem& problem, const SimplexOptions& options)
      : options_(options), rows_(problem.row_count()), structural_(problem.variable_count()) {
    problem.consolidate();

    // Normalize rows so every right-hand side is non-negative; remember the
    // sign so duals can be reported for the original orientation.
    row_sign_.assign(rows_, 1.0);
    b_.assign(rows_, 0.0);
    std::vector<RowSense> sense(rows_);
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
      sense[i] = s;
    }

    // Structural columns (with row signs applied).
    columns_.reserve(structural_ + 2 * rows_);
    cost_.reserve(structural_ + 2 * rows_);
    for (std::size_t j = 0; j < structural_; ++j) {
      std::vector<ColumnEntry> column = problem.column(j);
      for (ColumnEntry& entry : column) entry.value *= row_sign_[entry.row];
      columns_.push_back(std::move(column));
      cost_.push_back(problem.objective_coefficient(j));
    }

    // Slack (<=) and surplus (>=) columns; slacks of <= rows start basic.
    basis_.assign(rows_, std::numeric_limits<std::size_t>::max());
    for (std::size_t i = 0; i < rows_; ++i) {
      if (sense[i] == RowSense::LessEqual) {
        basis_[i] = add_unit_column(i, 1.0);
      } else if (sense[i] == RowSense::GreaterEqual) {
        (void)add_unit_column(i, -1.0);
      }
    }

    // Artificial columns for rows without a basic slack.
    first_artificial_ = columns_.size();
    for (std::size_t i = 0; i < rows_; ++i) {
      if (basis_[i] == std::numeric_limits<std::size_t>::max()) {
        basis_[i] = add_unit_column(i, 1.0);
      }
    }

    in_basis_.assign(columns_.size(), false);
    for (std::size_t i = 0; i < rows_; ++i) in_basis_[basis_[i]] = true;

    // Initial basis consists of +1 unit columns, so B^-1 = I and xB = b.
    basis_inverse_.assign(rows_ * rows_, 0.0);
    for (std::size_t i = 0; i < rows_; ++i) basis_inverse_[i * rows_ + i] = 1.0;
    xb_ = b_;
  }

  [[nodiscard]] Solution run() {
    Solution solution;
    const std::size_t limit = options_.max_iterations != 0
                                  ? options_.max_iterations
                                  : 50 * (rows_ + columns_.size()) + 1000;

    // Phase 1: minimize the sum of artificials (skipped when none exist).
    if (first_artificial_ < columns_.size()) {
      std::vector<double> phase1(columns_.size(), 0.0);
      for (std::size_t j = first_artificial_; j < columns_.size(); ++j) phase1[j] = 1.0;
      const SolveStatus status = optimize(phase1, limit, solution.iterations);
      if (status == SolveStatus::IterationLimit) {
        solution.status = status;
        return solution;
      }
      double infeasibility = 0.0;
      for (std::size_t i = 0; i < rows_; ++i) {
        if (basis_[i] >= first_artificial_) infeasibility += xb_[i];
      }
      if (infeasibility > 1e-7) {
        solution.status = SolveStatus::Infeasible;
        solution.objective = infeasibility;
        return solution;
      }
    }

    // Phase 2 with the true objective.
    std::vector<double> phase2(columns_.size(), 0.0);
    for (std::size_t j = 0; j < structural_; ++j) phase2[j] = cost_[j];
    const SolveStatus status = optimize(phase2, limit, solution.iterations);
    solution.status = status;
    if (status != SolveStatus::Optimal) return solution;

    solution.values.assign(structural_, 0.0);
    for (std::size_t i = 0; i < rows_; ++i) {
      if (basis_[i] < structural_) {
        solution.values[basis_[i]] = std::max(0.0, xb_[i]);
      }
    }
    solution.objective = 0.0;
    for (std::size_t j = 0; j < structural_; ++j) {
      solution.objective += cost_[j] * solution.values[j];
    }
    const std::vector<double> y = duals(phase2);
    solution.duals.assign(rows_, 0.0);
    for (std::size_t i = 0; i < rows_; ++i) solution.duals[i] = y[i] * row_sign_[i];
    return solution;
  }

 private:
  std::size_t add_unit_column(std::size_t row, double value) {
    columns_.push_back({ColumnEntry{row, value}});
    cost_.push_back(0.0);
    return columns_.size() - 1;
  }

  /// y^T = c_B^T B^-1.
  [[nodiscard]] std::vector<double> duals(const std::vector<double>& cost) const {
    std::vector<double> y(rows_, 0.0);
    for (std::size_t i = 0; i < rows_; ++i) {
      const double cb = cost[basis_[i]];
      if (cb == 0.0) continue;
      const double* row = &basis_inverse_[i * rows_];
      for (std::size_t j = 0; j < rows_; ++j) y[j] += cb * row[j];
    }
    return y;
  }

  /// w = B^-1 A_j for a sparse column.
  void ftran(std::size_t column, std::vector<double>& w) const {
    std::fill(w.begin(), w.end(), 0.0);
    for (const ColumnEntry& entry : columns_[column]) {
      const double value = entry.value;
      for (std::size_t i = 0; i < rows_; ++i) {
        w[i] += basis_inverse_[i * rows_ + entry.row] * value;
      }
    }
  }

  /// Rebuilds B^-1 from the basis columns by Gauss–Jordan elimination with
  /// partial pivoting, then recomputes xB. Throws on a singular basis.
  void refactorize() {
    const std::size_t m = rows_;
    std::vector<double> work(m * 2 * m, 0.0);  // [B | I]
    for (std::size_t i = 0; i < m; ++i) work[i * 2 * m + m + i] = 1.0;
    for (std::size_t col = 0; col < m; ++col) {
      for (const ColumnEntry& entry : columns_[basis_[col]]) {
        work[entry.row * 2 * m + col] = entry.value;
      }
    }
    for (std::size_t col = 0; col < m; ++col) {
      std::size_t pivot = col;
      double best = std::abs(work[col * 2 * m + col]);
      for (std::size_t i = col + 1; i < m; ++i) {
        const double candidate = std::abs(work[i * 2 * m + col]);
        if (candidate > best) {
          best = candidate;
          pivot = i;
        }
      }
      if (best < 1e-12) throw std::runtime_error{"simplex: singular basis during refactorization"};
      if (pivot != col) {
        for (std::size_t j = 0; j < 2 * m; ++j) {
          std::swap(work[pivot * 2 * m + j], work[col * 2 * m + j]);
        }
      }
      const double inv = 1.0 / work[col * 2 * m + col];
      for (std::size_t j = 0; j < 2 * m; ++j) work[col * 2 * m + j] *= inv;
      for (std::size_t i = 0; i < m; ++i) {
        if (i == col) continue;
        const double factor = work[i * 2 * m + col];
        if (factor == 0.0) continue;
        for (std::size_t j = 0; j < 2 * m; ++j) {
          work[i * 2 * m + j] -= factor * work[col * 2 * m + j];
        }
      }
    }
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < m; ++j) {
        basis_inverse_[i * m + j] = work[i * 2 * m + m + j];
      }
    }
    for (std::size_t i = 0; i < m; ++i) {
      double sum = 0.0;
      for (std::size_t j = 0; j < m; ++j) sum += basis_inverse_[i * m + j] * b_[j];
      xb_[i] = sum;
    }
  }

  SolveStatus optimize(const std::vector<double>& cost, std::size_t limit,
                       std::size_t& iterations) {
    std::vector<double> w(rows_, 0.0);
    std::size_t degenerate_run = 0;
    std::size_t pivots_since_refactor = 0;
    bool bland = false;

    for (;;) {
      if (iterations >= limit) return SolveStatus::IterationLimit;
      ++iterations;

      const std::vector<double> y = duals(cost);

      // Pricing. Artificials never re-enter the basis.
      std::size_t entering = std::numeric_limits<std::size_t>::max();
      double best_reduced = -kTolerance;
      for (std::size_t j = 0; j < first_artificial_; ++j) {
        if (in_basis_[j]) continue;
        double reduced = cost[j];
        for (const ColumnEntry& entry : columns_[j]) reduced -= y[entry.row] * entry.value;
        if (bland) {
          if (reduced < -kTolerance) {
            entering = j;
            break;
          }
        } else if (reduced < best_reduced) {
          best_reduced = reduced;
          entering = j;
        }
      }
      if (entering == std::numeric_limits<std::size_t>::max()) return SolveStatus::Optimal;

      ftran(entering, w);

      // Ratio test. Zero-level basic artificials may leave on a degenerate
      // pivot regardless of the sign of w_i; this both drives residual
      // artificials out in phase 2 and prevents them from going positive.
      std::size_t leaving = std::numeric_limits<std::size_t>::max();
      double best_ratio = kInf;
      bool leaving_is_artificial = false;
      for (std::size_t i = 0; i < rows_; ++i) {
        const bool artificial = basis_[i] >= first_artificial_;
        double ratio = kInf;
        if (w[i] > kPivotTolerance) {
          ratio = std::max(0.0, xb_[i]) / w[i];
        } else if (artificial && xb_[i] <= kTolerance &&
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
               (leaving == std::numeric_limits<std::size_t>::max() ||
                basis_[i] < basis_[leaving]))));
        if (better) {
          best_ratio = ratio;
          leaving = i;
          leaving_is_artificial = artificial;
        }
      }
      if (leaving == std::numeric_limits<std::size_t>::max()) return SolveStatus::Unbounded;

      // Pivot: update xB, B^-1, and the basis bookkeeping.
      const double theta = best_ratio;
      const double pivot_value = w[leaving];
      for (std::size_t i = 0; i < rows_; ++i) {
        if (i != leaving) xb_[i] -= theta * w[i];
      }
      xb_[leaving] = theta;

      double* pivot_row = &basis_inverse_[leaving * rows_];
      const double inv_pivot = 1.0 / pivot_value;
      for (std::size_t j = 0; j < rows_; ++j) pivot_row[j] *= inv_pivot;
      for (std::size_t i = 0; i < rows_; ++i) {
        if (i == leaving || w[i] == 0.0) continue;
        double* row = &basis_inverse_[i * rows_];
        const double factor = w[i];
        for (std::size_t j = 0; j < rows_; ++j) row[j] -= factor * pivot_row[j];
      }

      in_basis_[basis_[leaving]] = false;
      basis_[leaving] = entering;
      in_basis_[entering] = true;

      // Anti-cycling bookkeeping.
      if (theta <= kTolerance) {
        if (++degenerate_run > kDegenerateSwitch) bland = true;
      } else {
        degenerate_run = 0;
        bland = false;
      }

      if (++pivots_since_refactor >= kRefactorInterval) {
        refactorize();
        pivots_since_refactor = 0;
      }
    }
  }

  SimplexOptions options_;
  std::size_t rows_;
  std::size_t structural_;
  std::size_t first_artificial_ = 0;

  std::vector<std::vector<ColumnEntry>> columns_;
  std::vector<double> cost_;
  std::vector<double> b_;
  std::vector<double> row_sign_;

  std::vector<std::size_t> basis_;
  std::vector<bool> in_basis_;
  std::vector<double> basis_inverse_;  // Row-major m x m.
  std::vector<double> xb_;
};

}  // namespace

Solution SimplexSolver::solve(LpProblem& problem) const {
  if (problem.row_count() == 0) {
    // Degenerate case: minimize over x >= 0 with no constraints.
    Solution solution;
    solution.values.assign(problem.variable_count(), 0.0);
    bool unbounded = false;
    for (std::size_t j = 0; j < problem.variable_count(); ++j) {
      if (problem.objective_coefficient(j) < 0.0) unbounded = true;
    }
    solution.status = unbounded ? SolveStatus::Unbounded : SolveStatus::Optimal;
    return solution;
  }
  SimplexState state{problem, options_};
  return state.run();
}

}  // namespace qp::lp
