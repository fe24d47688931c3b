// Types shared by the LP layer: the solve status, the simplex basis used for
// warm starts, and the solver options. lp::RevisedSimplexSolver
// (lp/revised_simplex.hpp) is the production engine; the dense two-phase
// tableau that these types were first written for lives in
// tests/support/dense_simplex as the parity oracle.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace qp::lp {

enum class SolveStatus { Optimal, Infeasible, Unbounded, IterationLimit };

[[nodiscard]] inline std::string to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::Optimal: return "optimal";
    case SolveStatus::Infeasible: return "infeasible";
    case SolveStatus::Unbounded: return "unbounded";
    case SolveStatus::IterationLimit: return "iteration-limit";
  }
  return "unknown";
}

/// A simplex basis: the basic variable of each constraint row, exported by
/// lp::RevisedSimplexSolver at optimality and accepted back through
/// SimplexOptions::initial_basis to warm-start a related LP. Each entry names
/// either a structural variable (its index) or the slack/surplus column of a
/// row (encoded via slack_of). Entries that do not apply to the new problem
/// (out of range, duplicated, or the slack of an equality row) are patched
/// with artificials by the importer, so a stale basis degrades gracefully
/// instead of failing. An empty basis means "cold start".
struct Basis {
  /// Encoding base for slack entries; slack_of(r) = kSlackBase + r. High
  /// enough that no structural variable index can collide.
  static constexpr std::size_t kSlackBase = std::size_t{1}
                                            << (8 * sizeof(std::size_t) - 2);

  /// basic[i] = variable basic in row i (structural index or slack_of(row)).
  std::vector<std::size_t> basic;

  [[nodiscard]] static constexpr std::size_t slack_of(std::size_t row) noexcept {
    return kSlackBase + row;
  }
  [[nodiscard]] static constexpr bool is_slack(std::size_t code) noexcept {
    return code >= kSlackBase;
  }
  [[nodiscard]] static constexpr std::size_t slack_row(std::size_t code) noexcept {
    return code - kSlackBase;
  }
  [[nodiscard]] bool empty() const noexcept { return basic.empty(); }
};

/// The solver's tolerances, refactorization schedule and pricing window are
/// constants of lp/revised_simplex.cpp; a solve is shaped only by its
/// iteration budget and warm-start seed.
struct SimplexOptions {
  /// 0 = automatic (50 * (rows + cols) + 1000).
  std::size_t max_iterations = 0;
  /// Warm-start basis for RevisedSimplexSolver (one entry per row of the
  /// problem being solved; see lp::Basis). Ignored when empty or
  /// shape-mismatched.
  Basis initial_basis{};
};

}  // namespace qp::lp
