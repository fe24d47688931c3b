// Linear-program container: minimize c^T x subject to sparse linear rows and
// x >= 0. This is the modeling layer that replaces the paper's GNU MathProg
// models; the access-strategy LP (4.3)-(4.6) and the many-to-one placement
// LP are both built through this interface and solved by
// lp::RevisedSimplexSolver.
//
// Variables are non-negative. Upper bounds must be expressed as rows by the
// caller when needed; the LPs in this codebase never need explicit upper
// bounds because per-client probabilities are already capped by their
// sum-to-one equality rows.
#pragma once

#include <cstddef>
#include <vector>

namespace qp::lp {

enum class RowSense { LessEqual, Equal, GreaterEqual };

/// One nonzero of a sparse column.
struct ColumnEntry {
  std::size_t row = 0;
  double value = 0.0;
};

class LpProblem {
 public:
  /// Adds a variable (x_j >= 0) with the given objective coefficient;
  /// returns its index.
  std::size_t add_variable(double objective_coefficient);

  /// Adds a constraint row with the given sense and right-hand side;
  /// returns its index.
  std::size_t add_row(RowSense sense, double rhs);

  /// Sets A[row][var] = value (accumulates if called twice for one cell).
  void add_coefficient(std::size_t row, std::size_t variable, double value);

  [[nodiscard]] std::size_t variable_count() const noexcept { return columns_.size(); }
  [[nodiscard]] std::size_t row_count() const noexcept { return senses_.size(); }

  [[nodiscard]] double objective_coefficient(std::size_t variable) const;
  [[nodiscard]] const std::vector<ColumnEntry>& column(std::size_t variable) const;
  [[nodiscard]] RowSense row_sense(std::size_t row) const;
  [[nodiscard]] double rhs(std::size_t row) const;

  /// Merges duplicate (row, var) entries; called by the solver before use.
  void consolidate();

 private:
  void check_variable(std::size_t variable) const;
  void check_row(std::size_t row) const;

  std::vector<std::vector<ColumnEntry>> columns_;
  std::vector<double> objective_;
  std::vector<RowSense> senses_;
  std::vector<double> rhs_;
};

}  // namespace qp::lp
