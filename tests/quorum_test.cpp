#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "common/combinatorics.hpp"
#include "common/rng.hpp"
#include "quorum/grid.hpp"
#include "quorum/majority.hpp"
#include "quorum/order_stats.hpp"
#include "quorum/quorum_system.hpp"
#include "quorum/singleton.hpp"
#include "support/quorum_checks.hpp"
#include "support/quorum_enumeration.hpp"

namespace qp::quorum {
namespace {

using qp::quorum::test_support::max_order_distribution;
using qp::quorum::test_support::verify_intersection;

// ------------------------------------------------------------ Order stats

TEST(OrderStats, DistributionSumsToOne) {
  const std::vector<double> values{3.0, 1.0, 4.0, 1.5, 9.0, 2.6};
  for (std::size_t q = 1; q <= values.size(); ++q) {
    const auto pmf = max_order_distribution(values, q);
    double total = 0.0;
    for (double p : pmf) total += p;
    EXPECT_NEAR(total, 1.0, 1e-12) << "q=" << q;
  }
}

TEST(OrderStats, FullSubsetIsMaximum) {
  const std::vector<double> values{3.0, 1.0, 4.0};
  EXPECT_DOUBLE_EQ(expected_max_uniform_subset(values, 3), 4.0);
}

TEST(OrderStats, SingletonSubsetIsMean) {
  const std::vector<double> values{2.0, 4.0, 6.0, 8.0};
  EXPECT_DOUBLE_EQ(expected_max_uniform_subset(values, 1), 5.0);
}

TEST(OrderStats, MatchesExhaustiveEnumeration) {
  const std::vector<double> values{5.0, 2.0, 8.0, 3.0, 7.0, 1.0, 4.0};
  for (std::size_t q = 1; q <= values.size(); ++q) {
    double total = 0.0;
    std::size_t count = 0;
    for (const auto& subset : test_support::all_subsets(values.size(), q)) {
      double max_value = 0.0;
      for (std::size_t i : subset) max_value = std::max(max_value, values[i]);
      total += max_value;
      ++count;
    }
    EXPECT_NEAR(expected_max_uniform_subset(values, q), total / count, 1e-10) << "q=" << q;
  }
}

TEST(OrderStats, HandlesTies) {
  const std::vector<double> values{2.0, 2.0, 2.0, 5.0};
  // P(max = 5) = C(3,1)... for q=2: subsets containing 5: 3 of 6 -> E = (3*5 + 3*2)/6.
  EXPECT_NEAR(expected_max_uniform_subset(values, 2), 3.5, 1e-12);
}

TEST(OrderStats, LargeUniverseIsFinite) {
  std::vector<double> values(161);
  common::Rng rng{5};
  for (double& v : values) v = rng.uniform(10.0, 300.0);
  const double e = expected_max_uniform_subset(values, 81);
  EXPECT_TRUE(std::isfinite(e));
  EXPECT_GE(e, 10.0);
  EXPECT_LE(e, 300.0);
}

TEST(OrderStats, MonteCarloAgreement) {
  std::vector<double> values(30);
  common::Rng rng{6};
  for (double& v : values) v = rng.uniform(0.0, 100.0);
  const std::size_t q = 11;
  const double analytic = expected_max_uniform_subset(values, q);
  double total = 0.0;
  const int trials = 40'000;
  for (int trial = 0; trial < trials; ++trial) {
    double max_value = 0.0;
    for (std::size_t i : rng.sample_without_replacement(values.size(), q)) {
      max_value = std::max(max_value, values[i]);
    }
    total += max_value;
  }
  EXPECT_NEAR(total / trials, analytic, 1.0);
}

TEST(OrderStats, RejectsBadSubsetSize) {
  const std::vector<double> values{1.0, 2.0};
  EXPECT_THROW((void)expected_max_uniform_subset(values, 0), std::invalid_argument);
  EXPECT_THROW((void)expected_max_uniform_subset(values, 3), std::invalid_argument);
}

// --------------------------------------------------------------- Majority

TEST(Majority, ConstructionRules) {
  EXPECT_NO_THROW(MajorityQuorum(5, 3));
  EXPECT_THROW(MajorityQuorum(5, 0), std::invalid_argument);
  EXPECT_THROW(MajorityQuorum(5, 6), std::invalid_argument);
  EXPECT_THROW(MajorityQuorum(6, 3), std::invalid_argument);  // 2q == n: disjoint possible.
}

TEST(Majority, CountsAndLoads) {
  const MajorityQuorum m{5, 3};
  EXPECT_DOUBLE_EQ(m.quorum_count(), 10.0);
  EXPECT_DOUBLE_EQ(m.optimal_load(), 0.6);
  for (double load : m.uniform_load()) EXPECT_DOUBLE_EQ(load, 0.6);
}

TEST(Majority, EnumerationMatchesCount) {
  const MajorityQuorum m{6, 4};
  const auto quorums = test_support::quorum_list(m);
  EXPECT_EQ(quorums.size(), 15u);
  EXPECT_TRUE(verify_intersection(m));
}

TEST(Majority, EnumerationThrowsWhenHuge) {
  const MajorityQuorum m{161, 81};
  EXPECT_FALSE(m.enumerable());
  EXPECT_THROW((void)m.quorums(), std::domain_error);
}

TEST(Majority, BestQuorumIsSmallestValues) {
  const MajorityQuorum m{5, 3};
  const std::vector<double> values{9.0, 1.0, 5.0, 2.0, 7.0};
  const Quorum best = m.best_quorum(values);
  EXPECT_EQ(best, (Quorum{1, 2, 3}));
}

TEST(Majority, BestQuorumTieBreaksDeterministically) {
  const MajorityQuorum m{4, 3};
  const std::vector<double> values{2.0, 2.0, 2.0, 2.0};
  EXPECT_EQ(m.best_quorum(values), (Quorum{0, 1, 2}));
}

TEST(Majority, ExpectedMaxMatchesEnumeration) {
  const MajorityQuorum m{7, 4};
  const std::vector<double> values{5.0, 2.0, 8.0, 3.0, 7.0, 1.0, 4.0};
  double total = 0.0;
  const auto quorums = test_support::quorum_list(m);
  for (const Quorum& quorum : quorums) {
    double max_value = 0.0;
    for (std::size_t u : quorum) max_value = std::max(max_value, values[u]);
    total += max_value;
  }
  EXPECT_NEAR(m.expected_max_uniform(values), total / quorums.size(), 1e-10);
}

TEST(Majority, SampledQuorumsAreValid) {
  const MajorityQuorum m{21, 17};
  common::Rng rng{8};
  for (const Quorum& quorum : m.sample_quorums(50, rng)) {
    EXPECT_EQ(quorum.size(), 17u);
    EXPECT_TRUE(std::is_sorted(quorum.begin(), quorum.end()));
    EXPECT_LT(quorum.back(), 21u);
  }
}

TEST(MajorityFamilies, UniverseSizesAndNames) {
  EXPECT_EQ(family_universe(MajorityFamily::SimpleMajority, 3), 7u);
  EXPECT_EQ(family_universe(MajorityFamily::ByzantineMajority, 3), 10u);
  EXPECT_EQ(family_universe(MajorityFamily::QuThreshold, 3), 16u);
  EXPECT_EQ(family_name(MajorityFamily::SimpleMajority), "(t+1,2t+1) Maj");

  for (std::size_t t = 1; t <= 4; ++t) {
    const auto simple = make_majority(MajorityFamily::SimpleMajority, t);
    EXPECT_EQ(simple.universe_size(), 2 * t + 1);
    EXPECT_EQ(simple.quorum_size(), t + 1);
    const auto byz = make_majority(MajorityFamily::ByzantineMajority, t);
    EXPECT_EQ(byz.universe_size(), 3 * t + 1);
    EXPECT_EQ(byz.quorum_size(), 2 * t + 1);
    const auto qu = make_majority(MajorityFamily::QuThreshold, t);
    EXPECT_EQ(qu.universe_size(), 5 * t + 1);
    EXPECT_EQ(qu.quorum_size(), 4 * t + 1);
  }
  EXPECT_THROW((void)make_majority(MajorityFamily::SimpleMajority, 0), std::invalid_argument);
}

// Byzantine-intersection property sweep: |Q1 ^ Q2| - t > t for the
// Byzantine families (quorum intersections survive t liars).
class MajorityIntersectionSweep
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(MajorityIntersectionSweep, MinimumIntersectionSize) {
  const auto [family_index, t] = GetParam();
  const auto family = static_cast<MajorityFamily>(family_index);
  const MajorityQuorum m = make_majority(family, t);
  // For threshold systems the minimum intersection of two quorums is 2q - n.
  const std::size_t q = m.quorum_size();
  const std::size_t n = m.universe_size();
  const std::size_t min_intersection = 2 * q - n;
  switch (family) {
    case MajorityFamily::SimpleMajority:
      EXPECT_GE(min_intersection, 1u);
      break;
    case MajorityFamily::ByzantineMajority:
      EXPECT_GE(min_intersection, t + 1);  // Safe against t Byzantine servers.
      break;
    case MajorityFamily::QuThreshold:
      EXPECT_GE(min_intersection, 3 * t + 1);  // Q/U needs 2t+1 honest overlap + t.
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(Families, MajorityIntersectionSweep,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values<std::size_t>(1, 2, 3, 5, 8)));

// ------------------------------------------------------------------- Grid

TEST(Grid, BasicShape) {
  const GridQuorum g{3};
  EXPECT_EQ(g.universe_size(), 9u);
  EXPECT_DOUBLE_EQ(g.quorum_count(), 9.0);
  EXPECT_EQ(g.name(), "Grid(3x3)");
  const auto quorums = test_support::quorum_list(g);
  EXPECT_EQ(quorums.size(), 9u);
  for (const Quorum& quorum : quorums) EXPECT_EQ(quorum.size(), 5u);  // 2k-1.
}

TEST(Grid, QuorumForRowColumn) {
  const GridQuorum g{3};
  // Quorums enumerate row-major by (row, column): quorum 1 * 3 + 2 is row 1
  // u column 2, elements 3,4,5 (row) + 2,8 (column minus overlap).
  const std::vector<Quorum> quorums = test_support::quorum_list(g);
  ASSERT_EQ(quorums.size(), 9u);
  EXPECT_EQ(quorums[1 * 3 + 2], (Quorum{2, 3, 4, 5, 8}));
}

TEST(Grid, IntersectionProperty) {
  for (std::size_t k : {1u, 2u, 3u, 4u, 5u, 6u}) {
    EXPECT_TRUE(verify_intersection(GridQuorum{k})) << "k=" << k;
  }
}

TEST(Grid, UniformLoadAndOptimalLoad) {
  const GridQuorum g{4};
  const double expected = 7.0 / 16.0;  // (2k-1)/k^2.
  EXPECT_DOUBLE_EQ(g.optimal_load(), expected);
  for (double load : g.uniform_load()) EXPECT_DOUBLE_EQ(load, expected);
}

TEST(Grid, BestQuorumMatchesBruteForce) {
  common::Rng rng{99};
  for (int trial = 0; trial < 50; ++trial) {
    const GridQuorum g{4};
    std::vector<double> values(16);
    for (double& v : values) v = rng.uniform(0.0, 100.0);
    const Quorum best = g.best_quorum(values);
    double best_max = 0.0;
    for (std::size_t u : best) best_max = std::max(best_max, values[u]);
    for (const Quorum& quorum : test_support::quorum_list(g)) {
      double quorum_max = 0.0;
      for (std::size_t u : quorum) quorum_max = std::max(quorum_max, values[u]);
      EXPECT_GE(quorum_max + 1e-12, best_max);
    }
  }
}

TEST(Grid, ExpectedMaxMatchesEnumeration) {
  common::Rng rng{101};
  const GridQuorum g{5};
  std::vector<double> values(25);
  for (double& v : values) v = rng.uniform(0.0, 50.0);
  double total = 0.0;
  for (const Quorum& quorum : test_support::quorum_list(g)) {
    double max_value = 0.0;
    for (std::size_t u : quorum) max_value = std::max(max_value, values[u]);
    total += max_value;
  }
  EXPECT_NEAR(g.expected_max_uniform(values), total / 25.0, 1e-10);
}

TEST(Grid, SampleQuorumsValid) {
  const GridQuorum g{4};
  common::Rng rng{3};
  for (const Quorum& quorum : g.sample_quorums(40, rng)) {
    EXPECT_EQ(quorum.size(), 7u);
    EXPECT_TRUE(std::is_sorted(quorum.begin(), quorum.end()));
  }
}

TEST(Grid, DegenerateOneByOne) {
  const GridQuorum g{1};
  EXPECT_EQ(g.universe_size(), 1u);
  EXPECT_EQ(g.quorums().size(), 1u);
  EXPECT_DOUBLE_EQ(g.optimal_load(), 1.0);
}

// -------------------------------------------------------------- Singleton

TEST(Singleton, Basics) {
  const SingletonQuorum s;
  EXPECT_EQ(s.universe_size(), 1u);
  EXPECT_DOUBLE_EQ(s.quorum_count(), 1.0);
  EXPECT_TRUE(verify_intersection(s));
  const std::vector<double> values{42.0};
  EXPECT_DOUBLE_EQ(s.expected_max_uniform(values), 42.0);
  EXPECT_EQ(s.best_quorum(values), (Quorum{0}));
  EXPECT_DOUBLE_EQ(s.uniform_load()[0], 1.0);
  common::Rng rng{1};
  EXPECT_EQ(s.sample_quorums(3, rng).size(), 3u);
}

TEST(QuorumSystem, ValuesSizeChecked) {
  const GridQuorum g{2};
  const std::vector<double> wrong{1.0, 2.0};
  EXPECT_THROW((void)g.best_quorum(wrong), std::invalid_argument);
  EXPECT_THROW((void)g.expected_max_uniform(wrong), std::invalid_argument);
}

}  // namespace
}  // namespace qp::quorum
