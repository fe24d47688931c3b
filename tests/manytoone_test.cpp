#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "core/capacity.hpp"
#include "core/manytoone.hpp"
#include "core/placement.hpp"
#include "core/response.hpp"
#include "core/strategy.hpp"
#include "lp/problem.hpp"
#include "lp/revised_simplex.hpp"
#include "net/synthetic.hpp"
#include "quorum/fpp.hpp"
#include "quorum/grid.hpp"
#include "quorum/majority.hpp"
#include "quorum/tree.hpp"
#include "support/dense_simplex.hpp"

namespace qp::core {
namespace {

using net::LatencyMatrix;

std::vector<double> uniform_distribution(std::size_t m) {
  return std::vector<double>(m, 1.0 / static_cast<double>(m));
}

/// avg_v sum_i p_i max_{u in Q_i} d(v, f(u)): the network delay of
/// `placement` when every client draws quorums[i] with probability probs[i].
double delay_under_common(const LatencyMatrix& m, const quorum::QuorumSystem& system,
                          std::vector<quorum::Quorum> quorums, std::span<const double> probs,
                          const Placement& placement) {
  const ExplicitStrategy common = common_strategy(std::move(quorums), probs, m.size());
  return evaluate_explicit(m, system, placement, 0.0, common).avg_network_delay_ms;
}

/// |a - b| <= eps * max(1, |b|): the repo-wide parity comparison.
void expect_parity(double actual, double expected, double eps = 1e-9) {
  EXPECT_LE(std::abs(actual - expected), eps * std::max(1.0, std::abs(expected)))
      << "actual=" << actual << " expected=" << expected;
}

/// The §4.1.2 placement LP for anchor v0, built independently of
/// core/manytoone in the same variable and row order: x_uw (u * sites + w),
/// then t_i; assignment rows, delay rows, capacity rows. The dense tableau
/// solve of this model is the parity oracle for the production path, and a
/// revised solve of it reproduces the basis that path hands to the next
/// anchor.
lp::LpProblem placement_lp(const LatencyMatrix& matrix, const quorum::QuorumSystem& system,
                           std::span<const double> probs, std::span<const double> caps,
                           std::size_t v0) {
  const auto quorums = system.enumerate_quorums();
  const std::vector<double> load = element_loads(quorums, probs, system.universe_size());
  const std::size_t sites = matrix.size();
  const std::size_t n = system.universe_size();
  const std::vector<double>& d = matrix.row(v0);
  lp::LpProblem problem;
  for (std::size_t var = 0; var < n * sites; ++var) (void)problem.add_variable(0.0);
  std::vector<std::size_t> t_var;
  for (double p : probs) t_var.push_back(problem.add_variable(p));
  for (std::size_t u = 0; u < n; ++u) {
    const std::size_t row = problem.add_row(lp::RowSense::Equal, 1.0);
    for (std::size_t w = 0; w < sites; ++w) problem.add_coefficient(row, u * sites + w, 1.0);
  }
  for (std::size_t i = 0; i < quorums.size(); ++i) {
    for (std::size_t u : quorums[i]) {
      const std::size_t row = problem.add_row(lp::RowSense::LessEqual, 0.0);
      for (std::size_t w = 0; w < sites; ++w) {
        if (d[w] > 0.0) problem.add_coefficient(row, u * sites + w, d[w]);
      }
      problem.add_coefficient(row, t_var[i], -1.0);
    }
  }
  for (std::size_t w = 0; w < sites; ++w) {
    const std::size_t row = problem.add_row(lp::RowSense::LessEqual, caps[w]);
    for (std::size_t u = 0; u < n; ++u) {
      if (load[u] > 0.0) problem.add_coefficient(row, u * sites + w, load[u]);
    }
  }
  return problem;
}

lp::Solution dense_oracle(const LatencyMatrix& matrix, const quorum::QuorumSystem& system,
                          std::span<const double> probs, std::span<const double> caps,
                          std::size_t v0) {
  lp::LpProblem problem = placement_lp(matrix, system, probs, caps, v0);
  return lp::SimplexSolver{}.solve(problem);
}

/// One small instance of each quorum family the paper evaluates.
struct FamilyCase {
  const char* name;
  std::unique_ptr<quorum::QuorumSystem> system;
};

std::vector<FamilyCase> family_cases() {
  std::vector<FamilyCase> cases;
  cases.push_back({"grid", std::make_unique<quorum::GridQuorum>(2)});
  cases.push_back({"majority", std::make_unique<quorum::MajorityQuorum>(5, 3)});
  cases.push_back({"tree", std::make_unique<quorum::TreeQuorum>(2)});
  cases.push_back({"fpp", std::make_unique<quorum::FppQuorum>(2)});
  return cases;
}

/// Capacities 1.25x the even spread of the total element load: binding (the
/// LP cannot collapse onto the anchor) yet feasible.
std::vector<double> spread_capacities(const quorum::QuorumSystem& system,
                                      std::span<const double> probs, std::size_t sites) {
  const std::vector<double> load =
      element_loads(system.enumerate_quorums(), probs, system.universe_size());
  const double total = std::accumulate(load.begin(), load.end(), 0.0);
  return uniform_capacities(sites, 1.25 * total / static_cast<double>(sites));
}

TEST(ManyToOne, ProducesValidPlacement) {
  const LatencyMatrix m = net::small_synth(10, 3);
  const quorum::GridQuorum grid{2};
  const auto probs = uniform_distribution(4);
  const auto caps = uniform_capacities(m.size(), 1.0);
  const ManyToOneResult result = many_to_one_placement(m, grid, probs, caps, 0);
  ASSERT_EQ(result.status, lp::SolveStatus::Optimal);
  result.placement.validate(m.size());
  EXPECT_EQ(result.placement.universe_size(), 4u);
}

TEST(ManyToOne, GenerousCapacityCollapsesTowardAnchor) {
  // With cap = |Q| on every site, putting everything on v0 is optimal: the
  // anchor client sees zero delay.
  const LatencyMatrix m = net::small_synth(8, 5);
  const quorum::GridQuorum grid{2};
  const auto probs = uniform_distribution(4);
  const std::vector<double> caps(m.size(), 3.0);  // Total load of Grid(2) is 3.
  const std::size_t v0 = 2;
  const ManyToOneResult result = many_to_one_placement(m, grid, probs, caps, v0);
  ASSERT_EQ(result.status, lp::SolveStatus::Optimal);
  EXPECT_NEAR(result.lp_delay_bound, 0.0, 1e-7);
  for (std::size_t site : result.placement.site_of) EXPECT_EQ(site, v0);
}

TEST(ManyToOne, InfeasibleWhenCapacityTooSmall) {
  const LatencyMatrix m = net::small_synth(6, 7);
  const quorum::GridQuorum grid{2};
  const auto probs = uniform_distribution(4);
  // Total balanced load is 3 but total capacity is 6 * 0.2 = 1.2.
  const auto caps = uniform_capacities(m.size(), 0.2);
  const ManyToOneResult result = many_to_one_placement(m, grid, probs, caps, 0);
  EXPECT_EQ(result.status, lp::SolveStatus::Infeasible);
  // The dense tableau agrees on the same LP.
  EXPECT_EQ(dense_oracle(m, grid, probs, caps, 0).status, lp::SolveStatus::Infeasible);
}

TEST(ManyToOne, LpBoundMatchesDenseOracleAcrossFamilies) {
  const LatencyMatrix m = net::small_synth(9, 37);
  for (const FamilyCase& family : family_cases()) {
    const quorum::QuorumSystem& system = *family.system;
    const auto probs = uniform_distribution(system.enumerate_quorums().size());
    const auto caps = spread_capacities(system, probs, m.size());
    for (std::size_t v0 : {std::size_t{0}, std::size_t{4}}) {
      SCOPED_TRACE(std::string{family.name} + " v0=" + std::to_string(v0));
      const ManyToOneResult result = many_to_one_placement(m, system, probs, caps, v0);
      const lp::Solution dense = dense_oracle(m, system, probs, caps, v0);
      ASSERT_EQ(result.status, lp::SolveStatus::Optimal);
      ASSERT_EQ(dense.status, lp::SolveStatus::Optimal);
      expect_parity(result.lp_delay_bound, dense.objective);
      EXPECT_GT(result.lp_delay_bound, 0.0);  // Caps bind: not collapsed on v0.
      result.placement.validate(m.size());
    }
  }
}

TEST(ManyToOne, CapacityViolationIsBounded) {
  // Shmoys-Tardos: the violation is at most cap + max item size, i.e.
  // load(w)/cap(w) <= 1 + max_u load(u)/cap(w). Check the reported factor.
  const LatencyMatrix m = net::small_synth(12, 11);
  const quorum::GridQuorum grid{3};
  const auto probs = uniform_distribution(9);
  const double cap_level = grid.optimal_load() * 1.3;
  const auto caps = uniform_capacities(m.size(), cap_level);
  const ManyToOneResult result = many_to_one_placement(m, grid, probs, caps, 1);
  ASSERT_EQ(result.status, lp::SolveStatus::Optimal);
  const double max_item = 5.0 / 9.0;  // Grid(3) uniform element load (2k-1)/k^2.
  EXPECT_LE(result.max_capacity_violation, 1.0 + max_item / cap_level + 1e-6);
}

TEST(ManyToOne, DelayBoundIsLowerBoundOnRoundedDelay) {
  const LatencyMatrix m = net::small_synth(10, 13);
  const quorum::GridQuorum grid{2};
  const auto probs = uniform_distribution(4);
  const auto caps = uniform_capacities(m.size(), 0.9);
  const std::size_t v0 = 3;
  const ManyToOneResult result = many_to_one_placement(m, grid, probs, caps, v0);
  ASSERT_EQ(result.status, lp::SolveStatus::Optimal);
  // The anchor's expected delay of the integral placement is bounded below
  // by the LP optimum (the LP relaxes integrality).
  const auto quorums = grid.enumerate_quorums(100);
  double anchor_delay = 0.0;
  for (std::size_t i = 0; i < quorums.size(); ++i) {
    double worst = 0.0;
    for (std::size_t u : quorums[i]) {
      worst = std::max(worst, m.rtt(v0, result.placement.site_of[u]));
    }
    anchor_delay += probs[i] * worst;
  }
  EXPECT_GE(anchor_delay + 1e-7, result.lp_delay_bound);
}

TEST(ManyToOne, NonUniformDistributionShiftsPlacement) {
  const LatencyMatrix m = net::small_synth(10, 17);
  const quorum::GridQuorum grid{2};
  // Heavily favor quorum (0,0) = elements {0,1,2}: their placement matters most.
  std::vector<double> probs{0.97, 0.01, 0.01, 0.01};
  const auto caps = uniform_capacities(m.size(), 0.8);
  const ManyToOneResult result = many_to_one_placement(m, grid, probs, caps, 0);
  ASSERT_EQ(result.status, lp::SolveStatus::Optimal);
  // Elements of the popular quorum sit closer to v0 than the unpopular one.
  const double popular = std::max({m.rtt(0, result.placement.site_of[0]),
                                   m.rtt(0, result.placement.site_of[1]),
                                   m.rtt(0, result.placement.site_of[2])});
  (void)popular;  // The strong assertion is on the LP bound below.
  EXPECT_LE(result.lp_delay_bound,
            delay_under_common(m, grid, grid.enumerate_quorums(100), probs, result.placement) +
                1e-6);
}

TEST(ManyToOne, ValidatesArguments) {
  const LatencyMatrix m = net::small_synth(6, 19);
  const quorum::GridQuorum grid{2};
  const auto caps = uniform_capacities(m.size(), 1.0);
  EXPECT_THROW((void)many_to_one_placement(m, grid, uniform_distribution(3), caps, 0),
               std::invalid_argument);  // Wrong distribution size.
  EXPECT_THROW((void)many_to_one_placement(m, grid, std::vector<double>(4, 0.3), caps, 0),
               std::invalid_argument);  // Does not sum to 1.
  EXPECT_THROW(
      (void)many_to_one_placement(m, grid, uniform_distribution(4), caps, 99),
      std::invalid_argument);  // v0 out of range.
  const std::vector<double> short_caps(2, 1.0);
  EXPECT_THROW((void)many_to_one_placement(m, grid, uniform_distribution(4), short_caps, 0),
               std::invalid_argument);
  // A non-finite capacity is rejected by the API, not by the LP layer.
  std::vector<double> nan_caps = caps;
  nan_caps[1] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)many_to_one_placement(m, grid, uniform_distribution(4), nan_caps, 0),
               std::invalid_argument);
  EXPECT_THROW((void)best_many_to_one_placement(m, grid, uniform_distribution(4), nan_caps),
               std::invalid_argument);
}

TEST(AverageNetworkDelayUnderDistribution, MatchesHandComputation) {
  const LatencyMatrix m{{{0.0, 4.0}, {4.0, 0.0}}};
  const std::vector<quorum::Quorum> quorums{{0}, {1}};
  const std::vector<double> probs{0.5, 0.5};
  const Placement p{{0, 1}};
  // The explicit strategy lists its own quorums; the system only fixes the
  // universe {0, 1}.
  const quorum::MajorityQuorum universe{2, 2};
  // Client 0: 0.5*0 + 0.5*4 = 2; client 1: 0.5*4 + 0.5*0 = 2.
  EXPECT_DOUBLE_EQ(delay_under_common(m, universe, quorums, probs, p), 2.0);
}

TEST(BestManyToOne, BeatsOrMatchesSingleAnchor) {
  const LatencyMatrix m = net::small_synth(10, 23);
  const quorum::GridQuorum grid{2};
  const auto probs = uniform_distribution(4);
  const auto caps = uniform_capacities(m.size(), 0.9);
  const ManyToOneSearchResult best = best_many_to_one_placement(m, grid, probs, caps);
  ASSERT_EQ(best.best.status, lp::SolveStatus::Optimal);
  const auto quorums = grid.enumerate_quorums(100);
  for (std::size_t v0 = 0; v0 < m.size(); ++v0) {
    const ManyToOneResult single = many_to_one_placement(m, grid, probs, caps, v0);
    ASSERT_EQ(single.status, lp::SolveStatus::Optimal);
    const double delay = delay_under_common(m, grid, quorums, probs, single.placement);
    EXPECT_GE(delay + 1e-9, best.avg_network_delay);
  }
}

TEST(BestManyToOne, WarmChainedAnchorBoundsMatchColdSolves) {
  // best_many_to_one_placement seeds each anchor's LP with the previous
  // anchor's optimal basis. Replay that chain through the public seed
  // (ManyToOneOptions::simplex.initial_basis, honoured by the first anchor)
  // and check every warm-seeded bound against a cold solve of its anchor.
  const LatencyMatrix m = net::small_synth(9, 41);
  for (const FamilyCase& family : family_cases()) {
    const quorum::QuorumSystem& system = *family.system;
    const auto probs = uniform_distribution(system.enumerate_quorums().size());
    const auto caps = spread_capacities(system, probs, m.size());
    const std::vector<std::size_t> order{3, 0, 8, 5, 1, 7};

    lp::Basis basis;
    std::vector<double> chained_bound(m.size(), -1.0);
    for (std::size_t v0 : order) {
      SCOPED_TRACE(std::string{family.name} + " v0=" + std::to_string(v0));
      ManyToOneOptions seeded;
      seeded.simplex.initial_basis = basis;
      const ManyToOneResult warm = many_to_one_placement(m, system, probs, caps, v0, seeded);
      const ManyToOneResult cold = many_to_one_placement(m, system, probs, caps, v0);
      ASSERT_EQ(warm.status, lp::SolveStatus::Optimal);
      ASSERT_EQ(cold.status, lp::SolveStatus::Optimal);
      expect_parity(warm.lp_delay_bound, cold.lp_delay_bound);
      chained_bound[v0] = warm.lp_delay_bound;
      // The basis this anchor hands on: the same seeded revised solve.
      lp::LpProblem problem = placement_lp(m, system, probs, caps, v0);
      lp::SimplexOptions options;
      options.initial_basis = basis;
      const lp::SolveResult solved = lp::RevisedSimplexSolver{options}.solve(problem);
      ASSERT_EQ(solved.status, lp::SolveStatus::Optimal);
      expect_parity(solved.objective, cold.lp_delay_bound);
      basis = solved.basis;
    }

    const ManyToOneSearchResult best =
        best_many_to_one_placement(m, system, probs, caps, order);
    ASSERT_EQ(best.best.status, lp::SolveStatus::Optimal);
    expect_parity(best.best.lp_delay_bound, chained_bound[best.anchor_client]);
    const ManyToOneResult cold_winner =
        many_to_one_placement(m, system, probs, caps, best.anchor_client);
    expect_parity(best.best.lp_delay_bound, cold_winner.lp_delay_bound);
  }
}

TEST(BestManyToOne, ManyToOneBeatsOneToOneOnNetworkDelay) {
  // §8: "using many-to-one placements ... network delay will necessarily
  // decrease" relative to one-to-one (quorums collapse onto fewer sites).
  const LatencyMatrix m = net::small_synth(12, 29);
  const quorum::GridQuorum grid{2};
  const auto probs = uniform_distribution(4);
  const auto caps = uniform_capacities(m.size(), 1.0);
  const ManyToOneSearchResult many = best_many_to_one_placement(m, grid, probs, caps);
  ASSERT_EQ(many.best.status, lp::SolveStatus::Optimal);
  const PlacementSearchResult one = best_grid_placement(m, 2);
  EXPECT_LE(many.avg_network_delay, one.avg_network_delay + 1e-9);
}

TEST(BestManyToOne, InfeasibleReported) {
  const LatencyMatrix m = net::small_synth(6, 31);
  const quorum::GridQuorum grid{2};
  const auto probs = uniform_distribution(4);
  const auto caps = uniform_capacities(m.size(), 0.01);
  const ManyToOneSearchResult best = best_many_to_one_placement(m, grid, probs, caps);
  EXPECT_EQ(best.best.status, lp::SolveStatus::Infeasible);
}

}  // namespace
}  // namespace qp::core
