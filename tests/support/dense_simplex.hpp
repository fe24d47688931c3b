// Two-phase revised simplex with a dense explicit basis inverse — the parity
// oracle for lp::RevisedSimplexSolver and for the LPs built on it (the
// access-strategy LP (4.3)-(4.6) and the many-to-one placement LP). It is
// test-only: production code solves every LP on the sparse revised solver.
//
// It is sized for the LPs the tests produce: a few hundred rows, up to a few
// tens of thousands of sparse columns. Design choices:
//   * dense m x m basis inverse updated by eta (pivot) transformations,
//     refactorized from scratch every 100 pivots to bound numerical drift;
//   * Dantzig pricing with a Bland's-rule fallback after 40 consecutive
//     degenerate pivots, which guarantees termination;
//   * phase 1 minimizes the sum of artificial variables (added only for rows
//     that need them), phase 2 re-prices with the true objective and drives
//     any residual zero-level artificials out of the basis.
// Its tolerances match the revised solver's. SimplexOptions::initial_basis
// is ignored: the dense solver always prices fully and always starts cold.
#pragma once

#include <cstddef>
#include <vector>

#include "lp/problem.hpp"
#include "lp/simplex.hpp"

namespace qp::lp {

struct Solution {
  SolveStatus status = SolveStatus::IterationLimit;
  double objective = 0.0;
  /// Primal values for the structural variables (empty unless Optimal).
  std::vector<double> values;
  /// Row duals y (empty unless Optimal). Sign convention: for the
  /// minimization problem, y_i <= 0 for LessEqual rows at optimality.
  std::vector<double> duals;
  std::size_t iterations = 0;
};

class SimplexSolver {
 public:
  explicit SimplexSolver(SimplexOptions options = {}) : options_(options) {}

  /// Solves min c^T x, Ax {<=,=,>=} b, x >= 0. The problem is consolidated
  /// (duplicate coefficients merged) as a side effect.
  [[nodiscard]] Solution solve(LpProblem& problem) const;

 private:
  SimplexOptions options_;
};

}  // namespace qp::lp
