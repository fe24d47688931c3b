#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "lp/problem.hpp"
#include "support/dense_simplex.hpp"
#include "support/lp_checks.hpp"

namespace qp::lp {
namespace {

using qp::lp::test_support::max_violation;

Solution solve(LpProblem& problem, SimplexOptions options = {}) {
  return SimplexSolver{options}.solve(problem);
}

TEST(LpProblem, BuilderBasics) {
  LpProblem p;
  const std::size_t x = p.add_variable(2.0);
  const std::size_t row = p.add_row(RowSense::LessEqual, 4.0);
  p.add_coefficient(row, x, 1.0);
  EXPECT_EQ(p.variable_count(), 1u);
  EXPECT_EQ(p.row_count(), 1u);
  EXPECT_DOUBLE_EQ(p.objective_coefficient(x), 2.0);
  EXPECT_THROW(p.add_coefficient(5, x, 1.0), std::out_of_range);
  EXPECT_THROW(p.add_coefficient(row, 5, 1.0), std::out_of_range);
  EXPECT_THROW((void)p.add_variable(std::nan("")), std::invalid_argument);
}

TEST(LpProblem, ConsolidateMergesDuplicates) {
  LpProblem p;
  const std::size_t x = p.add_variable(1.0);
  const std::size_t row = p.add_row(RowSense::Equal, 3.0);
  p.add_coefficient(row, x, 1.0);
  p.add_coefficient(row, x, 2.0);
  p.consolidate();
  ASSERT_EQ(p.column(x).size(), 1u);
  EXPECT_DOUBLE_EQ(p.column(x)[0].value, 3.0);
}

TEST(LpProblem, ViolationMeasure) {
  LpProblem p;
  const std::size_t x = p.add_variable(1.0);
  const std::size_t le = p.add_row(RowSense::LessEqual, 1.0);
  p.add_coefficient(le, x, 1.0);
  EXPECT_DOUBLE_EQ(max_violation(p, {2.0}), 1.0);
  EXPECT_DOUBLE_EQ(max_violation(p, {0.5}), 0.0);
  EXPECT_DOUBLE_EQ(max_violation(p, {-0.5}), 0.5);
}

// A tiny textbook LP:
//   max 3x + 5y  s.t.  x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0
//   optimum (2, 6), objective 36.  (We minimize the negation.)
TEST(Simplex, TextbookOptimum) {
  LpProblem p;
  const std::size_t x = p.add_variable(-3.0);
  const std::size_t y = p.add_variable(-5.0);
  p.add_coefficient(p.add_row(RowSense::LessEqual, 4.0), x, 1.0);
  p.add_coefficient(p.add_row(RowSense::LessEqual, 12.0), y, 2.0);
  const std::size_t r3 = p.add_row(RowSense::LessEqual, 18.0);
  p.add_coefficient(r3, x, 3.0);
  p.add_coefficient(r3, y, 2.0);

  const Solution s = solve(p);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, -36.0, 1e-9);
  EXPECT_NEAR(s.values[x], 2.0, 1e-9);
  EXPECT_NEAR(s.values[y], 6.0, 1e-9);
  EXPECT_NEAR(max_violation(p, s.values), 0.0, 1e-9);
}

TEST(Simplex, EqualityAndGreaterRows) {
  // min x + 2y  s.t.  x + y = 10, x >= 3, y >= 2  ->  x = 8, y = 2.
  LpProblem p;
  const std::size_t x = p.add_variable(1.0);
  const std::size_t y = p.add_variable(2.0);
  const std::size_t eq = p.add_row(RowSense::Equal, 10.0);
  p.add_coefficient(eq, x, 1.0);
  p.add_coefficient(eq, y, 1.0);
  p.add_coefficient(p.add_row(RowSense::GreaterEqual, 3.0), x, 1.0);
  p.add_coefficient(p.add_row(RowSense::GreaterEqual, 2.0), y, 1.0);

  const Solution s = solve(p);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 12.0, 1e-9);
  EXPECT_NEAR(s.values[x], 8.0, 1e-9);
  EXPECT_NEAR(s.values[y], 2.0, 1e-9);
}

TEST(Simplex, DetectsInfeasible) {
  // x <= 1 and x >= 2 cannot hold together.
  LpProblem p;
  const std::size_t x = p.add_variable(1.0);
  p.add_coefficient(p.add_row(RowSense::LessEqual, 1.0), x, 1.0);
  p.add_coefficient(p.add_row(RowSense::GreaterEqual, 2.0), x, 1.0);
  EXPECT_EQ(solve(p).status, SolveStatus::Infeasible);
}

TEST(Simplex, DetectsUnbounded) {
  // min -x with only x >= 0 and a slack-irrelevant row.
  LpProblem p;
  const std::size_t x = p.add_variable(-1.0);
  const std::size_t y = p.add_variable(1.0);
  const std::size_t row = p.add_row(RowSense::LessEqual, 5.0);
  p.add_coefficient(row, y, 1.0);
  (void)x;
  EXPECT_EQ(solve(p).status, SolveStatus::Unbounded);
}

TEST(Simplex, NegativeRhsNormalization) {
  // min x  s.t.  -x <= -5  (i.e. x >= 5).
  LpProblem p;
  const std::size_t x = p.add_variable(1.0);
  p.add_coefficient(p.add_row(RowSense::LessEqual, -5.0), x, -1.0);
  const Solution s = solve(p);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.values[x], 5.0, 1e-9);
}

TEST(Simplex, NoConstraints) {
  LpProblem p;
  (void)p.add_variable(1.0);
  EXPECT_EQ(solve(p).status, SolveStatus::Optimal);
  LpProblem q;
  (void)q.add_variable(-1.0);
  EXPECT_EQ(solve(q).status, SolveStatus::Unbounded);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Classic degeneracy: multiple rows active at the origin.
  LpProblem p;
  const std::size_t x = p.add_variable(-1.0);
  const std::size_t y = p.add_variable(-1.0);
  for (int i = 0; i < 4; ++i) {
    const std::size_t row = p.add_row(RowSense::LessEqual, 0.0);
    p.add_coefficient(row, x, 1.0 + i);
    p.add_coefficient(row, y, -1.0);
  }
  const std::size_t cap = p.add_row(RowSense::LessEqual, 10.0);
  p.add_coefficient(cap, x, 1.0);
  p.add_coefficient(cap, y, 1.0);
  const Solution s = solve(p);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(max_violation(p, s.values), 0.0, 1e-8);
}

TEST(Simplex, TransportationProblem) {
  // Two suppliers (cap 10, 20), three consumers (demand 8, 12, 6);
  // costs c[s][d]. Known optimum by exhaustive reasoning below.
  const double cost[2][3] = {{1.0, 4.0, 7.0}, {3.0, 2.0, 5.0}};
  LpProblem p;
  std::size_t var[2][3];
  for (int s = 0; s < 2; ++s) {
    for (int d = 0; d < 3; ++d) var[s][d] = p.add_variable(cost[s][d]);
  }
  const double supply[2] = {10.0, 20.0};
  const double demand[3] = {8.0, 12.0, 6.0};
  for (int s = 0; s < 2; ++s) {
    const std::size_t row = p.add_row(RowSense::LessEqual, supply[s]);
    for (int d = 0; d < 3; ++d) p.add_coefficient(row, var[s][d], 1.0);
  }
  for (int d = 0; d < 3; ++d) {
    const std::size_t row = p.add_row(RowSense::Equal, demand[d]);
    for (int s = 0; s < 2; ++s) p.add_coefficient(row, var[s][d], 1.0);
  }
  const Solution s = solve(p);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  // Supplier 0 serves consumer 0 fully (8) and 2 units elsewhere; cheapest:
  // x00=8, x01=2 (cost 8+8=16) vs routing through supplier 1... the LP
  // optimum is 8*1 + 12*2 + 6*5 = 62 with x00=8, x11=12, x12=6? Check via
  // violation + duality instead of hand-derived values:
  EXPECT_NEAR(max_violation(p, s.values), 0.0, 1e-8);
  EXPECT_NEAR(s.objective, 62.0, 1e-7);
}

TEST(Simplex, DualValuesSatisfyStrongDuality) {
  // For the textbook LP, b^T y must equal the primal objective.
  LpProblem p;
  const std::size_t x = p.add_variable(-3.0);
  const std::size_t y = p.add_variable(-5.0);
  const std::size_t r1 = p.add_row(RowSense::LessEqual, 4.0);
  p.add_coefficient(r1, x, 1.0);
  const std::size_t r2 = p.add_row(RowSense::LessEqual, 12.0);
  p.add_coefficient(r2, y, 2.0);
  const std::size_t r3 = p.add_row(RowSense::LessEqual, 18.0);
  p.add_coefficient(r3, x, 3.0);
  p.add_coefficient(r3, y, 2.0);
  const Solution s = solve(p);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  ASSERT_EQ(s.duals.size(), 3u);
  const double dual_objective = 4.0 * s.duals[0] + 12.0 * s.duals[1] + 18.0 * s.duals[2];
  EXPECT_NEAR(dual_objective, s.objective, 1e-8);
}

// Property sweep: random feasible-by-construction LPs; the simplex solution
// must be feasible and at least as good as a large random-sampling baseline.
class RandomLpSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomLpSweep, FeasibleAndBeatsRandomSampling) {
  common::Rng rng{GetParam()};
  const std::size_t vars = 4 + rng.below(5);
  const std::size_t rows = 2 + rng.below(4);

  LpProblem p;
  std::vector<double> c(vars);
  for (std::size_t j = 0; j < vars; ++j) {
    c[j] = rng.uniform(-2.0, 3.0);
    (void)p.add_variable(c[j]);
  }
  // Rows a^T x <= b with a >= 0 and b > 0 keep the origin feasible and the
  // problem bounded in every negative-cost direction with positive row mass.
  std::vector<std::vector<double>> a(rows, std::vector<double>(vars));
  std::vector<double> b(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    const std::size_t row = p.add_row(RowSense::LessEqual, b[i] = rng.uniform(1.0, 5.0));
    for (std::size_t j = 0; j < vars; ++j) {
      a[i][j] = rng.uniform(0.2, 2.0);
      p.add_coefficient(row, j, a[i][j]);
    }
  }

  const Solution s = solve(p);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_LE(max_violation(p, s.values), 1e-7);

  // Random feasible points never beat the reported optimum.
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<double> x(vars);
    for (double& v : x) v = rng.uniform(0.0, 1.0);
    // Scale into the feasible region.
    double worst = 1.0;
    for (std::size_t i = 0; i < rows; ++i) {
      double activity = 0.0;
      for (std::size_t j = 0; j < vars; ++j) activity += a[i][j] * x[j];
      if (activity > b[i]) worst = std::max(worst, activity / b[i]);
    }
    for (double& v : x) v /= worst;
    double objective = 0.0;
    for (std::size_t j = 0; j < vars; ++j) objective += c[j] * x[j];
    EXPECT_GE(objective, s.objective - 1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLpSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12));

TEST(Simplex, MediumScaleStressIsFeasible) {
  // A larger assignment-like LP: 40 clients x 25 options with capacity rows,
  // resembling the access-strategy LP's structure.
  common::Rng rng{777};
  const std::size_t clients = 40, options = 25;
  LpProblem p;
  for (std::size_t v = 0; v < clients; ++v) {
    for (std::size_t i = 0; i < options; ++i) {
      (void)p.add_variable(rng.uniform(1.0, 100.0));
    }
  }
  for (std::size_t i = 0; i < options; ++i) {
    const std::size_t row = p.add_row(RowSense::LessEqual, 0.1);
    for (std::size_t v = 0; v < clients; ++v) {
      p.add_coefficient(row, v * options + i, 1.0 / clients);
    }
  }
  for (std::size_t v = 0; v < clients; ++v) {
    const std::size_t row = p.add_row(RowSense::Equal, 1.0);
    for (std::size_t i = 0; i < options; ++i) p.add_coefficient(row, v * options + i, 1.0);
  }
  const Solution s = solve(p);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_LE(max_violation(p, s.values), 1e-6);
  EXPECT_GT(s.objective, 0.0);
}

TEST(Simplex, IterationLimitReported) {
  LpProblem p;
  const std::size_t x = p.add_variable(-1.0);
  const std::size_t row = p.add_row(RowSense::LessEqual, 1.0);
  p.add_coefficient(row, x, 1.0);
  SimplexOptions options;
  options.max_iterations = 1;  // Absurdly small.
  const Solution s = solve(p, options);
  EXPECT_TRUE(s.status == SolveStatus::IterationLimit || s.status == SolveStatus::Optimal);
}

TEST(Simplex, StatusToString) {
  EXPECT_EQ(to_string(SolveStatus::Optimal), "optimal");
  EXPECT_EQ(to_string(SolveStatus::Infeasible), "infeasible");
  EXPECT_EQ(to_string(SolveStatus::Unbounded), "unbounded");
  EXPECT_EQ(to_string(SolveStatus::IterationLimit), "iteration-limit");
}

}  // namespace
}  // namespace qp::lp
