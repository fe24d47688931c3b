#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "quorum/fpp.hpp"
#include "support/quorum_checks.hpp"

namespace qp::quorum {
namespace {

using qp::quorum::test_support::verify_intersection;

TEST(Fpp, SizesForSmallPrimes) {
  for (std::size_t q : {2u, 3u, 5u, 7u}) {
    const FppQuorum plane{q};
    EXPECT_EQ(plane.universe_size(), q * q + q + 1) << q;
    EXPECT_DOUBLE_EQ(plane.quorum_count(), static_cast<double>(q * q + q + 1)) << q;
    for (const Quorum& line : test_support::quorum_list(plane)) {
      EXPECT_EQ(line.size(), q + 1) << q;
      EXPECT_TRUE(std::is_sorted(line.begin(), line.end()));
    }
  }
}

TEST(Fpp, RejectsNonPrimesAndHugeOrders) {
  EXPECT_THROW(FppQuorum{0}, std::invalid_argument);
  EXPECT_THROW(FppQuorum{1}, std::invalid_argument);
  EXPECT_THROW(FppQuorum{4}, std::invalid_argument);   // Prime power, unsupported.
  EXPECT_THROW(FppQuorum{6}, std::invalid_argument);
  EXPECT_THROW(FppQuorum{37}, std::invalid_argument);  // Above the size cap.
}

TEST(Fpp, FanoPlaneIsTheClassicSevenPointPlane) {
  const FppQuorum fano{2};
  EXPECT_EQ(fano.universe_size(), 7u);
  const auto lines = test_support::quorum_list(fano);
  EXPECT_EQ(lines.size(), 7u);
  // Every point lies on exactly 3 lines.
  std::vector<int> incidence(7, 0);
  for (const Quorum& line : lines) {
    for (std::size_t p : line) incidence[p] += 1;
  }
  for (int count : incidence) EXPECT_EQ(count, 3);
}

TEST(Fpp, AnyTwoLinesMeetInExactlyOnePoint) {
  for (std::size_t q : {2u, 3u, 5u}) {
    const FppQuorum plane{q};
    const auto lines = test_support::quorum_list(plane);
    for (std::size_t a = 0; a < lines.size(); ++a) {
      for (std::size_t b = a + 1; b < lines.size(); ++b) {
        std::vector<std::size_t> common;
        std::set_intersection(lines[a].begin(), lines[a].end(), lines[b].begin(),
                              lines[b].end(), std::back_inserter(common));
        EXPECT_EQ(common.size(), 1u) << "q=" << q << " lines " << a << "," << b;
      }
    }
  }
}

TEST(Fpp, IntersectionPropertyViaBaseClass) {
  EXPECT_TRUE(verify_intersection(FppQuorum{3}));
}

TEST(Fpp, LoadIsOptimalOrderSqrtN) {
  const FppQuorum plane{5};  // n = 31, |Q| = 6.
  const double expected = 6.0 / 31.0;
  EXPECT_DOUBLE_EQ(plane.optimal_load(), expected);
  for (double load : plane.uniform_load()) EXPECT_DOUBLE_EQ(load, expected);
  // FPP's load beats Majority's (which is > 1/2) by design.
  EXPECT_LT(plane.optimal_load(), 0.5);
}

TEST(Fpp, BestQuorumMatchesBruteForce) {
  common::Rng rng{71};
  const FppQuorum plane{3};
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> values(plane.universe_size());
    for (double& v : values) v = rng.uniform(0.0, 100.0);
    const Quorum best = plane.best_quorum(values);
    double best_max = 0.0;
    for (std::size_t u : best) best_max = std::max(best_max, values[u]);
    for (const Quorum& line : test_support::quorum_list(plane)) {
      double worst = 0.0;
      for (std::size_t u : line) worst = std::max(worst, values[u]);
      EXPECT_GE(worst + 1e-12, best_max);
    }
  }
}

TEST(Fpp, ExpectedMaxMatchesEnumeration) {
  common::Rng rng{73};
  const FppQuorum plane{2};
  std::vector<double> values(7);
  for (double& v : values) v = rng.uniform(0.0, 10.0);
  const auto lines = test_support::quorum_list(plane);
  double total = 0.0;
  for (const Quorum& line : lines) {
    double worst = 0.0;
    for (std::size_t u : line) worst = std::max(worst, values[u]);
    total += worst;
  }
  EXPECT_NEAR(plane.expected_max_uniform(values), total / 7.0, 1e-12);
}

TEST(Fpp, SamplesAreValidLines) {
  const FppQuorum plane{3};
  common::Rng rng{79};
  const auto all = test_support::quorum_list(plane);
  const std::set<Quorum> valid(all.begin(), all.end());
  for (const Quorum& line : plane.sample_quorums(100, rng)) {
    EXPECT_TRUE(valid.count(line));
  }
}

}  // namespace
}  // namespace qp::quorum
