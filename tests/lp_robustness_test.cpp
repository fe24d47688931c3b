// Robustness tests for the simplex solver: redundant rows (residual
// zero-level artificials), duals on >= / = rows, scaling behavior, and
// structured instances shaped like the paper's LPs.
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

TEST(SimplexRobustness, DuplicatedEqualityRowsAreHandled) {
  // x + y = 1 stated twice: the second row is redundant; its artificial can
  // never leave the basis through a regular pivot, exercising the
  // zero-level-artificial path.
  LpProblem p;
  const std::size_t x = p.add_variable(1.0);
  const std::size_t y = p.add_variable(2.0);
  for (int copy = 0; copy < 3; ++copy) {
    const std::size_t row = p.add_row(RowSense::Equal, 1.0);
    p.add_coefficient(row, x, 1.0);
    p.add_coefficient(row, y, 1.0);
  }
  const Solution s = solve(p);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 1.0, 1e-9);
  EXPECT_NEAR(s.values[x], 1.0, 1e-9);
  EXPECT_NEAR(s.values[y], 0.0, 1e-9);
}

TEST(SimplexRobustness, RedundantMixedRows) {
  // A >= row implied by an = row; plus an irrelevant <= row.
  LpProblem p;
  const std::size_t x = p.add_variable(3.0);
  const std::size_t eq = p.add_row(RowSense::Equal, 4.0);
  p.add_coefficient(eq, x, 2.0);
  const std::size_t ge = p.add_row(RowSense::GreaterEqual, 1.0);
  p.add_coefficient(ge, x, 1.0);
  const std::size_t le = p.add_row(RowSense::LessEqual, 100.0);
  p.add_coefficient(le, x, 1.0);
  const Solution s = solve(p);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.values[x], 2.0, 1e-9);
  EXPECT_NEAR(s.objective, 6.0, 1e-9);
}

TEST(SimplexRobustness, DualsOnMixedSenses) {
  // min 2x + 3y s.t. x + y >= 4, x <= 3  ->  x=3, y=1, objective 9.
  // Strong duality: 4*y1 + 3*y2 = 9 with y1 dual of >=, y2 dual of <=.
  LpProblem p;
  const std::size_t x = p.add_variable(2.0);
  const std::size_t y = p.add_variable(3.0);
  const std::size_t ge = p.add_row(RowSense::GreaterEqual, 4.0);
  p.add_coefficient(ge, x, 1.0);
  p.add_coefficient(ge, y, 1.0);
  const std::size_t le = p.add_row(RowSense::LessEqual, 3.0);
  p.add_coefficient(le, x, 1.0);
  const Solution s = solve(p);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 9.0, 1e-9);
  ASSERT_EQ(s.duals.size(), 2u);
  EXPECT_NEAR(4.0 * s.duals[0] + 3.0 * s.duals[1], 9.0, 1e-8);
  // For a minimization, the >= row's dual is non-negative, the <= row's
  // non-positive.
  EXPECT_GE(s.duals[0], -1e-9);
  EXPECT_LE(s.duals[1], 1e-9);
}

TEST(SimplexRobustness, ScalingInvariance) {
  // Scaling all costs by a constant scales the objective, not the argmin.
  common::Rng rng{123};
  LpProblem a, b;
  const std::size_t vars = 6;
  for (std::size_t j = 0; j < vars; ++j) {
    const double c = rng.uniform(1.0, 10.0);
    (void)a.add_variable(c);
    (void)b.add_variable(1000.0 * c);
  }
  for (LpProblem* p : {&a, &b}) {
    const std::size_t row = p->add_row(RowSense::Equal, 1.0);
    for (std::size_t j = 0; j < vars; ++j) p->add_coefficient(row, j, 1.0);
  }
  const Solution sa = solve(a);
  const Solution sb = solve(b);
  ASSERT_EQ(sa.status, SolveStatus::Optimal);
  ASSERT_EQ(sb.status, SolveStatus::Optimal);
  EXPECT_NEAR(sb.objective, 1000.0 * sa.objective, 1e-6 * sb.objective);
  for (std::size_t j = 0; j < vars; ++j) {
    EXPECT_NEAR(sa.values[j], sb.values[j], 1e-8);
  }
}

TEST(SimplexRobustness, TinyAndHugeCoefficients) {
  // min x s.t. 1e-6 x >= 1  ->  x = 1e6.
  LpProblem p;
  const std::size_t x = p.add_variable(1.0);
  const std::size_t row = p.add_row(RowSense::GreaterEqual, 1.0);
  p.add_coefficient(row, x, 1e-6);
  const Solution s = solve(p);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.values[x], 1e6, 1.0);
}

TEST(SimplexRobustness, AccessStrategyShapedInstanceRandomSweep) {
  // Instances with the exact structure of LP (4.3)-(4.6): per-client
  // equality rows + shared capacity rows. The uniform distribution is
  // always feasible when caps >= quorum_size/options; the solver must find
  // something at least as good as uniform.
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    common::Rng rng{seed};
    const std::size_t clients = 10, options_count = 8, sites = 6;
    // Random "quorum -> sites" incidence, 3 sites per option.
    std::vector<std::vector<std::size_t>> option_sites(options_count);
    for (auto& sites_of : option_sites) {
      sites_of = rng.sample_without_replacement(sites, 3);
    }
    std::vector<std::vector<double>> delay(clients, std::vector<double>(options_count));
    for (auto& row : delay) {
      for (double& d : row) d = rng.uniform(10.0, 200.0);
    }
    const double cap = 3.0 / static_cast<double>(sites) * 1.4;

    LpProblem p;
    for (std::size_t v = 0; v < clients; ++v) {
      for (std::size_t i = 0; i < options_count; ++i) {
        (void)p.add_variable(delay[v][i] / clients);
      }
    }
    std::vector<std::size_t> cap_row(sites);
    for (std::size_t w = 0; w < sites; ++w) {
      cap_row[w] = p.add_row(RowSense::LessEqual, cap);
    }
    for (std::size_t v = 0; v < clients; ++v) {
      const std::size_t eq = p.add_row(RowSense::Equal, 1.0);
      for (std::size_t i = 0; i < options_count; ++i) {
        p.add_coefficient(eq, v * options_count + i, 1.0);
        for (std::size_t w : option_sites[i]) {
          p.add_coefficient(cap_row[w], v * options_count + i, 1.0 / clients);
        }
      }
    }
    const Solution s = solve(p);
    ASSERT_EQ(s.status, SolveStatus::Optimal) << "seed=" << seed;
    EXPECT_LE(max_violation(p, s.values), 1e-7);
    // Uniform baseline objective.
    double uniform = 0.0;
    for (std::size_t v = 0; v < clients; ++v) {
      for (std::size_t i = 0; i < options_count; ++i) {
        uniform += delay[v][i] / clients / options_count;
      }
    }
    EXPECT_LE(s.objective, uniform + 1e-7) << "seed=" << seed;
  }
}

TEST(SimplexRobustness, RepeatedSolveIsDeterministic) {
  common::Rng rng{55};
  LpProblem p;
  for (int j = 0; j < 12; ++j) (void)p.add_variable(rng.uniform(-1.0, 2.0));
  for (int i = 0; i < 6; ++i) {
    const std::size_t row = p.add_row(RowSense::LessEqual, rng.uniform(1.0, 4.0));
    for (int j = 0; j < 12; ++j) p.add_coefficient(row, j, rng.uniform(0.1, 1.0));
  }
  const Solution a = solve(p);
  const Solution b = solve(p);
  ASSERT_EQ(a.status, b.status);
  EXPECT_DOUBLE_EQ(a.objective, b.objective);
  EXPECT_EQ(a.values, b.values);
}

TEST(SimplexRobustness, ZeroRhsEqualityForcesZero) {
  // x - y = 0 with min x + y and x,y >= 0: optimum at the origin.
  LpProblem p;
  const std::size_t x = p.add_variable(1.0);
  const std::size_t y = p.add_variable(1.0);
  const std::size_t eq = p.add_row(RowSense::Equal, 0.0);
  p.add_coefficient(eq, x, 1.0);
  p.add_coefficient(eq, y, -1.0);
  const Solution s = solve(p);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 0.0, 1e-9);
}

}  // namespace
}  // namespace qp::lp
