#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
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
#include "net/synthetic.hpp"
#include "obs/metrics.hpp"
#include "quorum/fpp.hpp"
#include "quorum/grid.hpp"
#include "quorum/majority.hpp"
#include "quorum/tree.hpp"
#include "support/dense_simplex.hpp"
#include "support/placement_lp.hpp"
#include "support/quorum_enumeration.hpp"

namespace qp::core {
namespace {

using net::LatencyMatrix;

std::vector<double> uniform_distribution(std::size_t m) {
  return std::vector<double>(m, 1.0 / static_cast<double>(m));
}

/// avg_v sum_i p_i max_{u in Q_i} d(v, f(u)): the network delay of
/// `placement` when every client draws quorums[i] with probability probs[i].
double delay_under_common(const LatencyMatrix& m, const quorum::QuorumSystem& system,
                          std::shared_ptr<const quorum::QuorumTable> quorums,
                          std::span<const double> probs, const Placement& placement) {
  const ExplicitStrategy common = common_strategy(std::move(quorums), probs, m.size());
  return evaluate_explicit(m, system, placement, 0.0, common).avg_network_delay_ms;
}

/// |a - b| <= eps * max(1, |b|): the repo-wide parity comparison.
void expect_parity(double actual, double expected, double eps = 1e-9) {
  EXPECT_LE(std::abs(actual - expected), eps * std::max(1.0, std::abs(expected)))
      << "actual=" << actual << " expected=" << expected;
}

std::uint64_t counter_total(const std::string& name) {
  for (const obs::MetricSnapshot& metric : obs::snapshot()) {
    if (metric.name == name) return metric.value;
  }
  return 0;
}

lp::Solution dense_oracle(const LatencyMatrix& matrix, const quorum::QuorumSystem& system,
                          std::span<const double> probs, std::span<const double> caps,
                          std::size_t v0) {
  lp::LpProblem problem = test_support::placement_lp(matrix, system, probs, caps, v0);
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
  const std::vector<double> load = element_loads(system.quorums(), probs);
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
    const auto probs = uniform_distribution(system.quorums().size());
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
  const quorum::QuorumTable& quorums = grid.quorums();
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
            delay_under_common(m, grid, grid.shared_quorums(), probs, result.placement) +
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
  const auto quorums = quorum::test_support::make_table(2, {{0}, {1}});
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
  for (std::size_t v0 = 0; v0 < m.size(); ++v0) {
    const ManyToOneResult single = many_to_one_placement(m, grid, probs, caps, v0);
    ASSERT_EQ(single.status, lp::SolveStatus::Optimal);
    const double delay =
        delay_under_common(m, grid, grid.shared_quorums(), probs, single.placement);
    EXPECT_GE(delay + 1e-9, best.avg_network_delay);
  }
}

TEST(BestManyToOne, CrashStartedAnchorBoundsMatchDenseOracle) {
  // Every anchor's LP starts from its own greedy crash basis. Check each
  // bound against the dense oracle on the per-(i, u) form, at a roomy level
  // where the crash fits every element (a feasible start) and a tight one
  // where no site can hold a whole element (the crash overflows and phase 1
  // repairs it).
  obs::set_enabled(true);
  const LatencyMatrix m = net::small_synth(9, 41);
  const std::vector<std::size_t> order{3, 0, 8, 5, 1, 7};
  for (const FamilyCase& family : family_cases()) {
    const quorum::QuorumSystem& system = *family.system;
    const auto probs = uniform_distribution(system.quorums().size());
    const std::vector<double> load = element_loads(system.quorums(), probs);
    const double max_load = *std::max_element(load.begin(), load.end());
    const std::vector<double> tight = spread_capacities(system, probs, m.size());
    ASSERT_LT(tight[0], max_load) << family.name;  // No element fits anywhere.
    const std::vector<double> roomy = uniform_capacities(m.size(), 1.5 * max_load);
    for (const bool overflows : {false, true}) {
      const std::vector<double>& caps = overflows ? tight : roomy;
      for (std::size_t v0 : order) {
        SCOPED_TRACE(std::string{family.name} + (overflows ? " tight" : " roomy") +
                     " v0=" + std::to_string(v0));
        const std::uint64_t before = counter_total("core.manytoone.crash_overflows");
        const ManyToOneResult result = many_to_one_placement(m, system, probs, caps, v0);
        EXPECT_EQ(counter_total("core.manytoone.crash_overflows"), before + (overflows ? 1 : 0));
        const lp::Solution dense = dense_oracle(m, system, probs, caps, v0);
        ASSERT_EQ(result.status, lp::SolveStatus::Optimal);
        ASSERT_EQ(dense.status, lp::SolveStatus::Optimal);
        expect_parity(result.lp_delay_bound, dense.objective);
        EXPECT_GT(result.lp_delay_bound, 0.0);  // Caps bind: not collapsed on v0.
      }
      const ManyToOneSearchResult best = best_many_to_one_placement(m, system, probs, caps, order);
      ASSERT_EQ(best.best.status, lp::SolveStatus::Optimal);
      expect_parity(best.best.lp_delay_bound,
                    dense_oracle(m, system, probs, caps, best.anchor_client).objective);
    }
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
