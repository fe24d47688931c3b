// Sparse revised simplex with an LU-factorized basis and warm starts.
//
// This is the only production LP engine: it solves both the access-strategy
// LP and the many-to-one placement LP. The dense two-phase tableau it
// replaced is a tests-only parity oracle (tests/support/dense_simplex).
// Design:
//   * column-wise sparse constraint storage — reduced costs and ftran touch
//     only nonzeros, so cost per pivot scales with fill, not rows x cols.
//     The columns (structural, slack/surplus, artificial) sit in one flat
//     CSC array: per-column start offsets into a 32-bit row-index array and
//     a parallel value array, in the problem's entry order, so every sum
//     runs in the same order as over per-column vectors;
//   * the basis is LU-factorized (Gilbert–Peierls left-looking elimination
//     with partial pivoting) and updated between refactorizations by
//     product-form eta vectors; it is refactorized from scratch every
//     `refactor_interval` pivots or when the eta file grows past a fill
//     budget, whichever comes first;
//   * Dantzig pricing over a rotating partial window (`pricing_window`),
//     with the same Bland's-rule fallback as the dense oracle after a run of
//     degenerate pivots;
//   * warm starts: `SimplexOptions::initial_basis` seeds the basis from a
//     previous solve of a related LP. Invalid entries are patched with
//     artificials, a singular seed falls back to the cold basis, and a
//     primal-infeasible seed is repaired by a composite phase 1 that prices
//     negative basic variables alongside residual artificials — so a basis
//     from an LP with slightly different costs / right-hand sides lands a
//     handful of pivots from optimal instead of restarting from scratch.
//
// Everything is single-threaded and allocation-order deterministic: the same
// problem and options produce bit-identical results for any thread count.
#pragma once

#include <cstddef>
#include <vector>

#include "lp/problem.hpp"
#include "lp/simplex.hpp"

namespace qp::lp {

/// Solution of RevisedSimplexSolver: status, objective, primal values and
/// duals, plus the optimal basis, which callers thread into the next related solve via
/// SimplexOptions::initial_basis.
struct SolveResult {
  SolveStatus status = SolveStatus::IterationLimit;
  double objective = 0.0;
  /// Primal values for the structural variables (empty unless Optimal).
  std::vector<double> values;
  /// Row duals y (empty unless Optimal). Sign convention: for the
  /// minimization problem, y_i <= 0 for LessEqual rows at optimality.
  std::vector<double> duals;
  /// Pricing passes, including the final one that proves optimality: a
  /// solve whose starting basis is already optimal reports 1.
  std::size_t iterations = 0;
  /// True when the warm seed (SimplexOptions::initial_basis) hit the
  /// iteration limit and the solve was retried once from the cold basis;
  /// `iterations` then counts both attempts.
  bool warm_start_stalled = false;
  /// Optimal basis, one entry per row (empty unless Optimal).
  Basis basis;
};

class RevisedSimplexSolver {
 public:
  explicit RevisedSimplexSolver(SimplexOptions options = {}) : options_(options) {}

  /// Solves min c^T x, Ax {<=,=,>=} b, x >= 0. The problem is consolidated
  /// (duplicate coefficients merged) as a side effect. A warm seed that
  /// stalls at the iteration limit is retried once from cold (see
  /// SolveResult::warm_start_stalled).
  [[nodiscard]] SolveResult solve(LpProblem& problem) const;

 private:
  SimplexOptions options_;
};

}  // namespace qp::lp
