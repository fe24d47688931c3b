// Feasibility check of a candidate LP point, over lp::LpProblem's public
// accessors: the tests' independent witness that a solver's x satisfies
// every row it was given.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "lp/problem.hpp"

namespace qp::lp::test_support {

/// Max violation of any row or sign constraint at x; 0 means feasible.
[[nodiscard]] inline double max_violation(const LpProblem& problem,
                                          const std::vector<double>& x) {
  if (x.size() != problem.variable_count()) {
    throw std::invalid_argument{"max_violation: size mismatch"};
  }
  std::vector<double> activity(problem.row_count(), 0.0);
  double worst = 0.0;
  for (std::size_t j = 0; j < x.size(); ++j) {
    worst = std::max(worst, -x[j]);  // Sign constraint x >= 0.
    for (const ColumnEntry& entry : problem.column(j)) activity[entry.row] += entry.value * x[j];
  }
  for (std::size_t i = 0; i < problem.row_count(); ++i) {
    const double gap = activity[i] - problem.rhs(i);
    switch (problem.row_sense(i)) {
      case RowSense::LessEqual:
        worst = std::max(worst, gap);
        break;
      case RowSense::Equal:
        worst = std::max(worst, std::abs(gap));
        break;
      case RowSense::GreaterEqual:
        worst = std::max(worst, -gap);
        break;
    }
  }
  return worst;
}

}  // namespace qp::lp::test_support
