// LP-solver layer tests: the sparse revised simplex (lp/revised_simplex)
// against the dense tableau parity oracle (tests/support/dense_simplex),
// warm starts, the shape routing of the strategy LP, and basis threading
// through the iterative alternation. See tests/README.md "LP solver".
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/iterative.hpp"
#include "core/manytoone.hpp"
#include "core/placement.hpp"
#include "core/response.hpp"
#include "core/strategy.hpp"
#include "lp/problem.hpp"
#include "lp/revised_simplex.hpp"
#include "net/latency_matrix.hpp"
#include "net/synthetic.hpp"
#include "obs/metrics.hpp"
#include "quorum/fpp.hpp"
#include "quorum/grid.hpp"
#include "quorum/majority.hpp"
#include "quorum/quorum_system.hpp"
#include "quorum/tree.hpp"
#include "support/dense_simplex.hpp"

namespace qp {
namespace {

using lp::LpProblem;
using lp::RevisedSimplexSolver;
using lp::RowSense;
using lp::SimplexOptions;
using lp::SimplexSolver;
using lp::Solution;
using lp::SolveResult;
using lp::SolveStatus;

SolveResult solve_revised(LpProblem& problem, SimplexOptions options = {}) {
  return RevisedSimplexSolver{options}.solve(problem);
}

Solution solve_dense(LpProblem& problem, SimplexOptions options = {}) {
  return SimplexSolver{options}.solve(problem);
}

/// |a - b| <= eps * max(1, |b|): the repo-wide parity comparison.
void expect_parity(double actual, double expected, double eps = 1e-9) {
  EXPECT_LE(std::abs(actual - expected), eps * std::max(1.0, std::abs(expected)))
      << "actual=" << actual << " expected=" << expected;
}

TEST(RevisedSimplex, TextbookOptimum) {
  LpProblem p;
  const std::size_t x = p.add_variable(-3.0);
  const std::size_t y = p.add_variable(-5.0);
  p.add_coefficient(p.add_row(RowSense::LessEqual, 4.0), x, 1.0);
  p.add_coefficient(p.add_row(RowSense::LessEqual, 12.0), y, 2.0);
  const std::size_t r3 = p.add_row(RowSense::LessEqual, 18.0);
  p.add_coefficient(r3, x, 3.0);
  p.add_coefficient(r3, y, 2.0);

  const SolveResult s = solve_revised(p);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, -36.0, 1e-9);
  EXPECT_NEAR(s.values[x], 2.0, 1e-9);
  EXPECT_NEAR(s.values[y], 6.0, 1e-9);
  EXPECT_NEAR(p.max_violation(s.values), 0.0, 1e-9);
  ASSERT_EQ(s.basis.basic.size(), 3u);
  // Strong duality, as for the dense solver.
  const double dual = 4.0 * s.duals[0] + 12.0 * s.duals[1] + 18.0 * s.duals[2];
  EXPECT_NEAR(dual, s.objective, 1e-8);
}

TEST(RevisedSimplex, EqualityAndGreaterRows) {
  // min x + 2y  s.t.  x + y = 10, x >= 3, y >= 2  ->  x = 8, y = 2.
  LpProblem p;
  const std::size_t x = p.add_variable(1.0);
  const std::size_t y = p.add_variable(2.0);
  const std::size_t eq = p.add_row(RowSense::Equal, 10.0);
  p.add_coefficient(eq, x, 1.0);
  p.add_coefficient(eq, y, 1.0);
  p.add_coefficient(p.add_row(RowSense::GreaterEqual, 3.0), x, 1.0);
  p.add_coefficient(p.add_row(RowSense::GreaterEqual, 2.0), y, 1.0);

  const SolveResult s = solve_revised(p);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 12.0, 1e-9);
  EXPECT_NEAR(s.values[x], 8.0, 1e-9);
  EXPECT_NEAR(s.values[y], 2.0, 1e-9);
}

TEST(RevisedSimplex, DetectsInfeasible) {
  LpProblem p;
  const std::size_t x = p.add_variable(1.0);
  p.add_coefficient(p.add_row(RowSense::LessEqual, 1.0), x, 1.0);
  p.add_coefficient(p.add_row(RowSense::GreaterEqual, 2.0), x, 1.0);
  EXPECT_EQ(solve_revised(p).status, SolveStatus::Infeasible);
}

TEST(RevisedSimplex, DetectsUnbounded) {
  LpProblem p;
  const std::size_t x = p.add_variable(-1.0);
  const std::size_t y = p.add_variable(1.0);
  const std::size_t row = p.add_row(RowSense::LessEqual, 5.0);
  p.add_coefficient(row, y, 1.0);
  (void)x;
  EXPECT_EQ(solve_revised(p).status, SolveStatus::Unbounded);
}

TEST(RevisedSimplex, NegativeRhsNormalization) {
  // min x  s.t.  -x <= -5  (i.e. x >= 5).
  LpProblem p;
  const std::size_t x = p.add_variable(1.0);
  p.add_coefficient(p.add_row(RowSense::LessEqual, -5.0), x, -1.0);
  const SolveResult s = solve_revised(p);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.values[x], 5.0, 1e-9);
}

TEST(RevisedSimplex, NoConstraints) {
  LpProblem p;
  (void)p.add_variable(1.0);
  EXPECT_EQ(solve_revised(p).status, SolveStatus::Optimal);
  LpProblem q;
  (void)q.add_variable(-1.0);
  EXPECT_EQ(solve_revised(q).status, SolveStatus::Unbounded);
}

TEST(RevisedSimplex, DegenerateProblemTerminates) {
  // Multiple rows active at the origin (the dense suite's cycling guard).
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
  const SolveResult s = solve_revised(p);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(p.max_violation(s.values), 0.0, 1e-8);
}

/// Random mixed-sense LP, feasible by construction: pick an interior point
/// x0 >= 0, set each row's rhs from its activity at x0 (with slack for the
/// inequality senses), and bound the feasible region so negative costs
/// cannot ride a ray to infinity.
LpProblem random_mixed_lp(common::Rng& rng, std::size_t vars, std::size_t rows) {
  LpProblem p;
  std::vector<double> x0(vars);
  for (std::size_t j = 0; j < vars; ++j) {
    x0[j] = rng.uniform(0.0, 2.0);
    (void)p.add_variable(rng.uniform(-2.0, 3.0));
  }
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<double> a(vars);
    double activity = 0.0;
    for (std::size_t j = 0; j < vars; ++j) {
      a[j] = rng.uniform(-1.0, 2.0);
      activity += a[j] * x0[j];
    }
    const std::size_t kind = rng.below(3);
    std::size_t row = 0;
    if (kind == 0) {
      row = p.add_row(RowSense::LessEqual, activity + rng.uniform(0.1, 2.0));
    } else if (kind == 1) {
      row = p.add_row(RowSense::GreaterEqual, activity - rng.uniform(0.1, 2.0));
    } else {
      row = p.add_row(RowSense::Equal, activity);
    }
    for (std::size_t j = 0; j < vars; ++j) p.add_coefficient(row, j, a[j]);
  }
  // Box the region: sum x <= sum x0 + margin keeps every cost bounded.
  double total = 0.0;
  for (double v : x0) total += v;
  const std::size_t box = p.add_row(RowSense::LessEqual, total + 10.0);
  for (std::size_t j = 0; j < vars; ++j) p.add_coefficient(box, j, 1.0);
  return p;
}

class RandomLpParity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomLpParity, RevisedMatchesDense) {
  common::Rng rng{GetParam()};
  const std::size_t vars = 4 + rng.below(8);
  const std::size_t rows = 2 + rng.below(6);
  LpProblem p = random_mixed_lp(rng, vars, rows);
  LpProblem q = p;

  const Solution dense = solve_dense(p);
  const SolveResult revised = solve_revised(q);
  ASSERT_EQ(dense.status, SolveStatus::Optimal);
  ASSERT_EQ(revised.status, SolveStatus::Optimal);
  expect_parity(revised.objective, dense.objective);
  EXPECT_LE(q.max_violation(revised.values), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLpParity,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                                           15, 16, 17, 18, 19, 20));

TEST(RevisedSimplex, WarmRestartOfSameProblemTakesNoPivots) {
  common::Rng rng{42};
  LpProblem p = random_mixed_lp(rng, 10, 6);
  LpProblem q = p;
  const SolveResult cold = solve_revised(p);
  ASSERT_EQ(cold.status, SolveStatus::Optimal);

  SimplexOptions warm_options;
  warm_options.initial_basis = cold.basis;
  const SolveResult warm = solve_revised(q, warm_options);
  ASSERT_EQ(warm.status, SolveStatus::Optimal);
  expect_parity(warm.objective, cold.objective);
  // Re-solving from the optimal basis is one optimality-confirming pass.
  EXPECT_LE(warm.iterations, 2u);
  EXPECT_LT(warm.iterations, cold.iterations);
  EXPECT_FALSE(warm.warm_start_stalled);
}

TEST(RevisedSimplex, WarmStartEqualsColdStartAfterPerturbation) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    common::Rng rng{seed};
    LpProblem base = random_mixed_lp(rng, 12, 8);
    LpProblem warm_copy = base;
    const SolveResult cold_base = solve_revised(base);
    ASSERT_EQ(cold_base.status, SolveStatus::Optimal);

    // Same constraint matrix, perturbed objective: rebuild with nudged costs.
    LpProblem perturbed;
    for (std::size_t j = 0; j < warm_copy.variable_count(); ++j) {
      (void)perturbed.add_variable(warm_copy.objective_coefficient(j) +
                                   rng.uniform(-0.05, 0.05));
    }
    for (std::size_t i = 0; i < warm_copy.row_count(); ++i) {
      (void)perturbed.add_row(warm_copy.row_sense(i),
                              warm_copy.rhs(i) + rng.uniform(-0.01, 0.01));
    }
    for (std::size_t j = 0; j < warm_copy.variable_count(); ++j) {
      for (const lp::ColumnEntry& entry : warm_copy.column(j)) {
        perturbed.add_coefficient(entry.row, j, entry.value);
      }
    }
    LpProblem perturbed_cold = perturbed;

    SimplexOptions warm_options;
    warm_options.initial_basis = cold_base.basis;
    const SolveResult warm = solve_revised(perturbed, warm_options);
    const SolveResult cold = solve_revised(perturbed_cold);
    if (cold.status != SolveStatus::Optimal) continue;  // rhs nudge may cut x0.
    ASSERT_EQ(warm.status, SolveStatus::Optimal) << "seed " << seed;
    expect_parity(warm.objective, cold.objective);
    EXPECT_LE(warm.iterations, cold.iterations) << "seed " << seed;
  }
}

TEST(RevisedSimplex, GarbageBasisFallsBackToColdStart) {
  common::Rng rng{7};
  LpProblem p = random_mixed_lp(rng, 8, 5);
  LpProblem q = p;
  const SolveResult reference = solve_revised(p);
  ASSERT_EQ(reference.status, SolveStatus::Optimal);

  SimplexOptions options;
  // Wrong-shaped, duplicated, and out-of-range entries all at once.
  options.initial_basis.basic.assign(q.row_count(), 123456789u);
  const SolveResult patched = solve_revised(q, options);
  ASSERT_EQ(patched.status, SolveStatus::Optimal);
  expect_parity(patched.objective, reference.objective);
}

TEST(RevisedSimplex, IterationLimitReported) {
  LpProblem p;
  const std::size_t x = p.add_variable(-1.0);
  const std::size_t row = p.add_row(RowSense::LessEqual, 1.0);
  p.add_coefficient(row, x, 1.0);
  SimplexOptions options;
  options.max_iterations = 1;
  const SolveResult s = solve_revised(p, options);
  EXPECT_TRUE(s.status == SolveStatus::IterationLimit ||
              s.status == SolveStatus::Optimal);
}

TEST(RevisedSimplex, MediumScaleStrategyShapedLp) {
  // The access-strategy LP's structure: capacity rows + distribution rows.
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
  LpProblem q = p;
  const Solution dense = solve_dense(p);
  const SolveResult revised = solve_revised(q);
  ASSERT_EQ(dense.status, SolveStatus::Optimal);
  ASSERT_EQ(revised.status, SolveStatus::Optimal);
  expect_parity(revised.objective, dense.objective);
  EXPECT_LE(q.max_violation(revised.values), 1e-6);
}

// ---------------------------------------------------------------------------
// Strategy level: LP (4.3)-(4.6) through optimize_access_strategy (the
// crash-started revised simplex on the aggregated LP), checked against the
// same LP built independently below and solved by the dense tableau oracle.
// ---------------------------------------------------------------------------

using core::Placement;
using core::StrategyLpOptions;
using core::StrategyLpResult;

Placement identity_placement(std::size_t universe) {
  Placement placement;
  placement.site_of.resize(universe);
  for (std::size_t e = 0; e < universe; ++e) placement.site_of[e] = e;
  return placement;
}

/// Capacities a shade above the balanced strategy's loads: feasible by
/// construction (the balanced strategy satisfies them, under any demand
/// weighting) and binding for the delay optimizer, which wants to
/// concentrate weight on close quorums.
std::vector<double> binding_caps(const quorum::QuorumSystem& system,
                                 const Placement& placement, std::size_t site_count,
                                 double slack = 1.02) {
  const std::vector<double> balanced =
      core::site_loads_balanced(system, placement, site_count);
  std::vector<double> caps(site_count, 1.0);
  for (std::size_t w = 0; w < site_count; ++w) {
    if (balanced[w] > 0.0) caps[w] = slack * balanced[w];
  }
  return caps;
}

/// LP (4.3)-(4.6) written out from the paper, independently of
/// core/strategy, and solved by the dense oracle: one variable p_v(Q) per
/// (client, quorum) priced w_v * max_{u in Q} d(v, f(u)); one sum-to-one row
/// per client; one capacity row per hosting site, charged w_v per element
/// of Q it hosts. Empty `weights` means w_v = 1/|V|.
Solution strategy_lp_oracle(const net::LatencyMatrix& matrix,
                            const quorum::QuorumSystem& system, const Placement& placement,
                            std::span<const double> caps,
                            std::span<const double> weights = {}) {
  const std::vector<quorum::Quorum> quorums = system.enumerate_quorums();
  const std::size_t n = matrix.size();
  LpProblem problem;
  std::vector<std::size_t> cap_row(n, n);
  for (std::size_t site : placement.site_of) {
    if (cap_row[site] == n) cap_row[site] = problem.add_row(RowSense::LessEqual, caps[site]);
  }
  for (std::size_t v = 0; v < n; ++v) {
    const double weight = weights.empty() ? 1.0 / static_cast<double>(n) : weights[v];
    const std::size_t dist_row = problem.add_row(RowSense::Equal, 1.0);
    for (const quorum::Quorum& quorum : quorums) {
      double delay = 0.0;
      for (std::size_t u : quorum) delay = std::max(delay, matrix.rtt(v, placement.site_of[u]));
      const std::size_t var = problem.add_variable(weight * delay);
      problem.add_coefficient(dist_row, var, 1.0);
      for (std::size_t u : quorum) {
        problem.add_coefficient(cap_row[placement.site_of[u]], var, weight);
      }
    }
  }
  return SimplexSolver{}.solve(problem);
}

StrategyLpResult solve_strategy(const net::LatencyMatrix& matrix,
                                const quorum::QuorumSystem& system,
                                const Placement& placement, std::span<const double> caps,
                                lp::Basis warm = {}) {
  StrategyLpOptions options;
  options.simplex.initial_basis = std::move(warm);
  return core::optimize_access_strategy(matrix, system, placement, caps, {}, options);
}

class StrategyLpParity : public ::testing::TestWithParam<const char*> {
 protected:
  static std::unique_ptr<quorum::QuorumSystem> make_system(const std::string& name) {
    if (name == "grid") return std::make_unique<quorum::GridQuorum>(3);
    if (name == "majority") return std::make_unique<quorum::MajorityQuorum>(9, 5);
    if (name == "fpp") return std::make_unique<quorum::FppQuorum>(2);
    return std::make_unique<quorum::TreeQuorum>(2);
  }
};

TEST_P(StrategyLpParity, RevisedMatchesDenseWithAndWithoutCapacityRows) {
  const auto system = make_system(GetParam());
  const net::LatencyMatrix matrix = net::small_synth(20, 901);
  const Placement placement = identity_placement(system->universe_size());

  std::vector<double> demand(matrix.size());
  for (std::size_t v = 0; v < demand.size(); ++v) {
    demand[v] = 1.0 + static_cast<double>((v * 7) % 5) * 2.0;
  }
  const std::vector<double> skewed = core::demand_shares(demand, matrix.size());
  ASSERT_FALSE(skewed.empty());
  const std::vector<double> loose(matrix.size(), 1e9);
  const std::vector<double> tight = binding_caps(*system, placement, matrix.size());
  for (const std::vector<double>* caps : {&loose, &tight}) {
    for (const std::span<const double> weights :
         {std::span<const double>{}, std::span<const double>{skewed}}) {
      SCOPED_TRACE(std::string{caps == &loose ? "loose" : "binding"} + " caps, " +
                   (weights.empty() ? "uniform" : "skewed") + " weights");
      const StrategyLpResult lp =
          core::optimize_access_strategy(matrix, *system, placement, *caps, weights);
      const Solution oracle = strategy_lp_oracle(matrix, *system, placement, *caps, weights);
      ASSERT_EQ(lp.status, SolveStatus::Optimal);
      ASSERT_EQ(oracle.status, SolveStatus::Optimal);
      expect_parity(lp.avg_network_delay, oracle.objective);
      lp.strategy.validate(matrix.size(), system->universe_size());
    }
  }
}

TEST_P(StrategyLpParity, ColocatedPlacementMatchesDense) {
  // Elements 0 and 1 share site 0, so every quorum holding both charges
  // that site twice: a count of 2 on its usage variable's capacity entry.
  const auto system = make_system(GetParam());
  const net::LatencyMatrix matrix = net::small_synth(20, 911);
  Placement placement = identity_placement(system->universe_size());
  placement.site_of[1] = 0;
  std::vector<double> demand(matrix.size());
  for (std::size_t v = 0; v < demand.size(); ++v) {
    demand[v] = 1.0 + static_cast<double>((v * 3) % 7);
  }
  const std::vector<double> skewed = core::demand_shares(demand, matrix.size());
  const std::vector<double> tight = binding_caps(*system, placement, matrix.size());
  for (const std::span<const double> weights :
       {std::span<const double>{}, std::span<const double>{skewed}}) {
    SCOPED_TRACE(weights.empty() ? "uniform weights" : "skewed weights");
    const StrategyLpResult lp =
        core::optimize_access_strategy(matrix, *system, placement, tight, weights);
    const Solution oracle = strategy_lp_oracle(matrix, *system, placement, tight, weights);
    ASSERT_EQ(lp.status, SolveStatus::Optimal);
    ASSERT_EQ(oracle.status, SolveStatus::Optimal);
    expect_parity(lp.avg_network_delay, oracle.objective);
    lp.strategy.validate(matrix.size(), system->universe_size());
  }
}

INSTANTIATE_TEST_SUITE_P(QuorumFamilies, StrategyLpParity,
                         ::testing::Values("grid", "majority", "fpp", "tree"),
                         [](const auto& info) { return std::string{info.param}; });

std::uint64_t counter_total(const std::string& name) {
  for (const obs::MetricSnapshot& metric : obs::snapshot()) {
    if (metric.name == name) return metric.value;
  }
  return 0;
}

TEST(StrategyLp, UncapacitatedSolveStopsAtTheCrashBasis) {
  // No cap can bind, so the closest-quorum crash is primal feasible and
  // dual optimal: the solve ends at its first pricing pass, with no phase 1.
  obs::set_enabled(true);
  const quorum::GridQuorum grid{3};
  const net::LatencyMatrix matrix = net::small_synth(24, 907);
  const Placement placement = identity_placement(grid.universe_size());
  const std::vector<double> loose(matrix.size(), 1e9);

  const std::uint64_t phase1 = counter_total("lp.revised.phase1_iterations");
  const StrategyLpResult lp = solve_strategy(matrix, grid, placement, loose);
  ASSERT_EQ(lp.status, SolveStatus::Optimal);
  EXPECT_EQ(lp.lp_iterations, 1u);
  EXPECT_EQ(counter_total("lp.revised.phase1_iterations"), phase1);
  const Solution oracle = strategy_lp_oracle(matrix, grid, placement, loose);
  ASSERT_EQ(oracle.status, SolveStatus::Optimal);
  expect_parity(lp.avg_network_delay, oracle.objective);
  lp.strategy.validate(matrix.size(), grid.universe_size());

  // Each client puts all its weight on its lowest-index minimum-delay
  // quorum; the instance has clients with exactly tied quorums.
  const std::vector<quorum::Quorum>& quorums = lp.strategy.quorums;
  std::size_t tied_clients = 0;
  for (std::size_t v = 0; v < matrix.size(); ++v) {
    std::vector<double> delay(quorums.size(), 0.0);
    for (std::size_t i = 0; i < quorums.size(); ++i) {
      for (std::size_t u : quorums[i]) {
        delay[i] = std::max(delay[i], matrix.rtt(v, placement.site_of[u]));
      }
    }
    const auto closest = std::min_element(delay.begin(), delay.end());
    if (std::count(delay.begin(), delay.end(), *closest) > 1) ++tied_clients;
    std::vector<double> expected(quorums.size(), 0.0);
    expected[static_cast<std::size_t>(closest - delay.begin())] = 1.0;
    EXPECT_EQ(lp.strategy.probability[v], expected) << "client " << v;
  }
  EXPECT_GT(tied_clients, 0u);

  // The exported basis is optimal: re-seeding with it also takes one pass.
  ASSERT_FALSE(lp.basis.empty());
  const StrategyLpResult again = solve_strategy(matrix, grid, placement, loose, lp.basis);
  ASSERT_EQ(again.status, SolveStatus::Optimal);
  EXPECT_EQ(again.lp_iterations, 1u);
  EXPECT_EQ(again.avg_network_delay, lp.avg_network_delay);
}

TEST(StrategyLp, WarmStartReachesColdOptimum) {
  const quorum::GridQuorum grid{3};
  const net::LatencyMatrix matrix = net::small_synth(24, 919);
  const Placement placement = identity_placement(grid.universe_size());

  const std::vector<double> first = binding_caps(grid, placement, matrix.size(), 1.05);
  const std::vector<double> second = binding_caps(grid, placement, matrix.size(), 1.02);
  const StrategyLpResult seed = solve_strategy(matrix, grid, placement, first);
  ASSERT_EQ(seed.status, SolveStatus::Optimal);
  ASSERT_FALSE(seed.basis.empty());

  const StrategyLpResult cold = solve_strategy(matrix, grid, placement, second);
  const StrategyLpResult warm = solve_strategy(matrix, grid, placement, second, seed.basis);
  ASSERT_EQ(cold.status, SolveStatus::Optimal);
  ASSERT_EQ(warm.status, SolveStatus::Optimal);
  expect_parity(warm.avg_network_delay, cold.avg_network_delay);
  // Re-solving a neighbouring rhs from the previous optimal basis must not
  // cost more pivots than starting over.
  EXPECT_LE(warm.lp_iterations, cold.lp_iterations);
}

TEST(StrategyLp, StalledWarmSeedCountsAMissAndSumsIterations) {
  obs::set_enabled(true);
  const quorum::GridQuorum grid{3};
  const net::LatencyMatrix matrix = net::small_synth(24, 919);
  const Placement placement = identity_placement(grid.universe_size());
  // The seed's caps are loose enough that its optimum overloads the tight
  // caps, so the seed is far from feasible for the stalled solve.
  const std::vector<double> near_loose(matrix.size(), 0.999);
  const std::vector<double> tight = binding_caps(grid, placement, matrix.size());
  const StrategyLpResult seed = solve_strategy(matrix, grid, placement, near_loose);
  ASSERT_EQ(seed.status, SolveStatus::Optimal);
  ASSERT_FALSE(seed.basis.empty());

  const std::uint64_t hit = counter_total("lp.strategy.warm_start_hit");
  const std::uint64_t miss = counter_total("lp.strategy.warm_start_miss");
  StrategyLpOptions options;
  options.simplex.max_iterations = 2;
  options.simplex.initial_basis = seed.basis;
  const StrategyLpResult stalled =
      core::optimize_access_strategy(matrix, grid, placement, tight, {}, options);
  EXPECT_EQ(stalled.status, SolveStatus::IterationLimit);
  EXPECT_EQ(stalled.lp_iterations, 4u);  // Warm attempt + one cold retry.
  EXPECT_EQ(counter_total("lp.strategy.warm_start_miss"), miss + 1);
  EXPECT_EQ(counter_total("lp.strategy.warm_start_hit"), hit);

  const StrategyLpResult warm = solve_strategy(matrix, grid, placement, tight, seed.basis);
  ASSERT_EQ(warm.status, SolveStatus::Optimal);
  EXPECT_EQ(counter_total("lp.strategy.warm_start_hit"), hit + 1);
  EXPECT_EQ(counter_total("lp.strategy.warm_start_miss"), miss + 1);
}

TEST(StrategyLp, ZeroWeightClientMatchesDense) {
  // A zero-weight client's columns carry only their distribution-row
  // entry; it still needs a full distribution (its crash column is basic).
  const quorum::GridQuorum grid{3};
  const net::LatencyMatrix matrix = net::small_synth(20, 913);
  const Placement placement = identity_placement(grid.universe_size());
  std::vector<double> weights(matrix.size(), 1.0 / static_cast<double>(matrix.size() - 1));
  weights[4] = 0.0;
  const std::vector<double> tight = binding_caps(grid, placement, matrix.size());
  const StrategyLpResult lp =
      core::optimize_access_strategy(matrix, grid, placement, tight, weights);
  const Solution oracle = strategy_lp_oracle(matrix, grid, placement, tight, weights);
  ASSERT_EQ(lp.status, SolveStatus::Optimal);
  ASSERT_EQ(oracle.status, SolveStatus::Optimal);
  expect_parity(lp.avg_network_delay, oracle.objective);
  lp.strategy.validate(matrix.size(), grid.universe_size());
}

TEST(StrategyLp, CapsBelowTheFeasibleMinimumStayInfeasibleFromTheCrashSeed) {
  // Every strategy puts average load >= L_opt on some element, so caps at
  // 0.9 L_opt leave no feasible point; phase 1 from the closest-quorum
  // crash must prove it, as the dense oracle does from its cold basis.
  const quorum::GridQuorum grid{3};
  const net::LatencyMatrix matrix = net::small_synth(20, 917);
  const Placement placement = identity_placement(grid.universe_size());
  const std::vector<double> caps(matrix.size(), 0.9 * grid.optimal_load());
  const StrategyLpResult lp = solve_strategy(matrix, grid, placement, caps);
  EXPECT_EQ(lp.status, SolveStatus::Infeasible);
  EXPECT_EQ(strategy_lp_oracle(matrix, grid, placement, caps).status,
            SolveStatus::Infeasible);
}

TEST(StrategyLp, UnseededSolveCountsNoWarmStartAndExportsItsOptimalBasis) {
  obs::set_enabled(true);
  const quorum::GridQuorum grid{3};
  const net::LatencyMatrix matrix = net::small_synth(24, 929);
  const Placement placement = identity_placement(grid.universe_size());
  const std::vector<double> tight = binding_caps(grid, placement, matrix.size());

  const std::uint64_t hit = counter_total("lp.strategy.warm_start_hit");
  const std::uint64_t miss = counter_total("lp.strategy.warm_start_miss");
  const StrategyLpResult cold = solve_strategy(matrix, grid, placement, tight);
  ASSERT_EQ(cold.status, SolveStatus::Optimal);
  // The crash seed is internal: only a caller's basis counts as a warm start.
  EXPECT_EQ(counter_total("lp.strategy.warm_start_hit"), hit);
  EXPECT_EQ(counter_total("lp.strategy.warm_start_miss"), miss);
  expect_parity(cold.avg_network_delay,
                strategy_lp_oracle(matrix, grid, placement, tight).objective);

  const StrategyLpResult again = solve_strategy(matrix, grid, placement, tight, cold.basis);
  ASSERT_EQ(again.status, SolveStatus::Optimal);
  EXPECT_LE(again.lp_iterations, 1u);
  expect_parity(again.avg_network_delay, cold.avg_network_delay);
  EXPECT_EQ(counter_total("lp.strategy.warm_start_hit"), hit + 1);
  EXPECT_EQ(counter_total("lp.strategy.warm_start_miss"), miss);
}

TEST(StrategyLp, IterativeWarmStartMatchesColdRun) {
  const net::LatencyMatrix matrix = net::small_synth(16, 23);
  const quorum::GridQuorum grid{2};
  const std::vector<double> caps(matrix.size(), 0.8);

  core::IterativeOptions warm_options;
  warm_options.anchor_candidates = {0, 1, 2, 3};
  core::IterativeOptions cold_options = warm_options;
  cold_options.warm_start = false;

  const core::IterativeResult warm =
      core::iterative_placement(matrix, grid, caps, core::LoadAwareObjective{5.0}, warm_options);
  const core::IterativeResult cold =
      core::iterative_placement(matrix, grid, caps, core::LoadAwareObjective{5.0}, cold_options);
  // Warm starts change pivot counts, never results: identical placements,
  // strategies, and responses.
  EXPECT_EQ(warm.placement.site_of, cold.placement.site_of);
  expect_parity(warm.avg_response, cold.avg_response);
  ASSERT_EQ(warm.history.size(), cold.history.size());
  for (std::size_t i = 0; i < warm.history.size(); ++i) {
    expect_parity(warm.history[i].response_after_strategy,
                  cold.history[i].response_after_strategy);
    EXPECT_FALSE(cold.history[i].lp_warm_started);
  }
}

TEST(StrategyLp, IterativeDenseAndRevisedEnginesAgree) {
  // Round 1 of the alternation starts from the uniform strategy, so its
  // phase-2 LP is fixed by the round-1 placement: rebuild that placement
  // and LP here and check the value the alternation records against the
  // dense oracle.
  const net::LatencyMatrix matrix = net::small_synth(16, 29);
  const quorum::GridQuorum grid{2};
  const std::vector<double> caps(matrix.size(), 0.8);

  core::IterativeOptions options;
  options.anchor_candidates = {0, 1, 2, 3};
  options.warm_start = false;
  const core::IterativeResult result =
      core::iterative_placement(matrix, grid, caps, core::LoadAwareObjective{5.0}, options);
  ASSERT_FALSE(result.history.empty());

  core::ExplicitStrategy uniform;
  uniform.quorums = grid.enumerate_quorums(quorum::kEnumerationLimit);
  const std::vector<double> average(uniform.quorums.size(),
                                    1.0 / static_cast<double>(uniform.quorums.size()));
  uniform.probability.assign(matrix.size(), average);
  const core::ManyToOneSearchResult round1 = core::best_many_to_one_placement(
      matrix, grid, average, caps, options.anchor_candidates, options.placement);
  ASSERT_EQ(round1.best.status, SolveStatus::Optimal);
  // Phase 2 pins each site's cap to the load the uniform strategy puts on
  // it under the new placement.
  std::vector<double> load_caps =
      core::site_loads_explicit(uniform, round1.best.placement, matrix.size());
  for (double& cap : load_caps) cap = cap * (1.0 + 1e-9) + 1e-12;
  const Solution oracle =
      strategy_lp_oracle(matrix, grid, round1.best.placement, load_caps);
  ASSERT_EQ(oracle.status, SolveStatus::Optimal);
  expect_parity(result.history[0].network_after_strategy, oracle.objective);
}

}  // namespace
}  // namespace qp
