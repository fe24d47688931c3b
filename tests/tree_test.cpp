#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "quorum/tree.hpp"
#include "support/quorum_checks.hpp"

namespace qp::quorum {
namespace {

using qp::quorum::test_support::verify_intersection;

TEST(Tree, SizesAndCounts) {
  // n = 2^(h+1) - 1; counts follow C(h)=1, C(d) = 2C(d+1) + C(d+1)^2.
  const TreeQuorum h0{0};
  EXPECT_EQ(h0.universe_size(), 1u);
  EXPECT_DOUBLE_EQ(h0.quorum_count(), 1.0);

  const TreeQuorum h1{1};
  EXPECT_EQ(h1.universe_size(), 3u);
  EXPECT_DOUBLE_EQ(h1.quorum_count(), 3.0);

  const TreeQuorum h2{2};
  EXPECT_EQ(h2.universe_size(), 7u);
  EXPECT_DOUBLE_EQ(h2.quorum_count(), 15.0);

  const TreeQuorum h3{3};
  EXPECT_EQ(h3.universe_size(), 15u);
  EXPECT_DOUBLE_EQ(h3.quorum_count(), 255.0);

  EXPECT_THROW(TreeQuorum{5}, std::invalid_argument);
}

TEST(Tree, EnumerationMatchesCountAndIsDistinct) {
  for (std::size_t h : {0u, 1u, 2u, 3u}) {
    const TreeQuorum tree{h};
    const auto quorums = test_support::quorum_list(tree);
    EXPECT_EQ(static_cast<double>(quorums.size()), tree.quorum_count()) << "h=" << h;
    std::set<Quorum> unique(quorums.begin(), quorums.end());
    EXPECT_EQ(unique.size(), quorums.size()) << "h=" << h;
    for (const Quorum& quorum : quorums) {
      EXPECT_TRUE(std::is_sorted(quorum.begin(), quorum.end()));
    }
  }
}

TEST(Tree, FlatTableSumsMatchEnumerationBitwise) {
  // expected_max_uniform and uniform_load read the system's quorum table;
  // they must equal the per-quorum sums over the oracle enumeration in
  // enumeration order, bit for bit, at every height.
  common::Rng rng{41};
  for (std::size_t h : {0u, 1u, 2u, 3u, 4u}) {
    const TreeQuorum tree{h};
    std::vector<double> values(tree.universe_size());
    for (double& value : values) value = rng.uniform(0.0, 300.0);
    const std::vector<Quorum> quorums = test_support::tree_quorums(h);
    double total = 0.0;
    std::vector<double> load(tree.universe_size(), 0.0);
    for (const Quorum& quorum : quorums) {
      double worst = 0.0;
      for (std::size_t u : quorum) {
        worst = std::max(worst, values[u]);
        load[u] += 1.0;
      }
      total += worst;
    }
    for (double& l : load) l /= static_cast<double>(quorums.size());
    EXPECT_EQ(tree.expected_max_uniform(values),
              total / static_cast<double>(quorums.size()))
        << "h=" << h;
    EXPECT_EQ(tree.uniform_load(), load) << "h=" << h;
  }
}

TEST(Tree, HeightOneQuorumsExplicit) {
  const TreeQuorum tree{1};
  const auto quorums = test_support::quorum_list(tree);
  const std::set<Quorum> expected{{0, 1}, {0, 2}, {1, 2}};
  EXPECT_EQ(std::set<Quorum>(quorums.begin(), quorums.end()), expected);
}

TEST(Tree, IntersectionProperty) {
  for (std::size_t h : {1u, 2u, 3u}) {
    EXPECT_TRUE(verify_intersection(TreeQuorum{h})) << "h=" << h;
  }
}

TEST(Tree, BestQuorumMatchesBruteForce) {
  common::Rng rng{31};
  for (int trial = 0; trial < 30; ++trial) {
    const TreeQuorum tree{2};
    std::vector<double> values(7);
    for (double& v : values) v = rng.uniform(0.0, 100.0);
    const Quorum best = tree.best_quorum(values);
    double best_max = 0.0;
    for (std::size_t u : best) best_max = std::max(best_max, values[u]);
    double brute = 1e300;
    for (const Quorum& quorum : test_support::quorum_list(tree)) {
      double worst = 0.0;
      for (std::size_t u : quorum) worst = std::max(worst, values[u]);
      brute = std::min(brute, worst);
    }
    EXPECT_NEAR(best_max, brute, 1e-12);
    // The returned quorum must actually be one of the system's quorums.
    const auto all = test_support::quorum_list(tree);
    EXPECT_NE(std::find(all.begin(), all.end(), best), all.end());
  }
}

TEST(Tree, SmallestQuorumIsRootToLeafPath) {
  const TreeQuorum tree{3};
  std::size_t smallest = 1000;
  for (const Quorum& quorum : test_support::quorum_list(tree)) {
    smallest = std::min(smallest, quorum.size());
  }
  EXPECT_EQ(smallest, 4u);  // Height 3 -> path of 4 nodes.
}

TEST(Tree, UniformLoadSumsToAverageQuorumSize) {
  const TreeQuorum tree{2};
  const auto load = tree.uniform_load();
  const auto quorums = test_support::quorum_list(tree);
  double total_size = 0.0;
  for (const Quorum& quorum : quorums) total_size += static_cast<double>(quorum.size());
  double total_load = 0.0;
  for (double l : load) total_load += l;
  EXPECT_NEAR(total_load, total_size / static_cast<double>(quorums.size()), 1e-12);
  // Counter-intuitively the root is the LEAST loaded element under the
  // uniform strategy: the quadratic "both children" branch means deeper
  // nodes appear in more quorums. optimal_load() reports the true maximum.
  for (std::size_t u = 1; u < load.size(); ++u) EXPECT_LE(load[0], load[u] + 1e-12);
  EXPECT_NEAR(tree.optimal_load(), *std::max_element(load.begin(), load.end()), 1e-12);
}

TEST(Tree, ExpectedMaxUniformMatchesEnumeration) {
  common::Rng rng{37};
  const TreeQuorum tree{2};
  std::vector<double> values(7);
  for (double& v : values) v = rng.uniform(0.0, 10.0);
  double total = 0.0;
  const auto quorums = test_support::quorum_list(tree);
  for (const Quorum& quorum : quorums) {
    double worst = 0.0;
    for (std::size_t u : quorum) worst = std::max(worst, values[u]);
    total += worst;
  }
  EXPECT_NEAR(tree.expected_max_uniform(values),
              total / static_cast<double>(quorums.size()), 1e-12);
}

TEST(Tree, SampledQuorumsAreUniform) {
  const TreeQuorum tree{1};  // 3 quorums; easy to histogram.
  common::Rng rng{41};
  std::map<Quorum, int> histogram;
  const int trials = 30'000;
  for (const Quorum& quorum : tree.sample_quorums(trials, rng)) histogram[quorum] += 1;
  ASSERT_EQ(histogram.size(), 3u);
  for (const auto& [quorum, count] : histogram) {
    EXPECT_NEAR(static_cast<double>(count) / trials, 1.0 / 3.0, 0.02);
  }
}

TEST(Tree, SampledQuorumsAreValidQuorums) {
  const TreeQuorum tree{3};
  common::Rng rng{43};
  const auto all = test_support::quorum_list(tree);
  const std::set<Quorum> valid(all.begin(), all.end());
  for (const Quorum& quorum : tree.sample_quorums(200, rng)) {
    EXPECT_TRUE(valid.count(quorum)) << "sampled quorum is not a tree quorum";
  }
}

TEST(Tree, TouchProbabilityDefaultEnumeration) {
  const TreeQuorum tree{2};
  // P(touch root) = fraction of quorums containing element 0.
  const auto quorums = test_support::quorum_list(tree);
  int with_root = 0;
  for (const Quorum& quorum : quorums) {
    with_root += std::binary_search(quorum.begin(), quorum.end(), std::size_t{0});
  }
  const std::vector<std::size_t> root{0};
  EXPECT_NEAR(tree.uniform_touch_probability(root),
              static_cast<double>(with_root) / static_cast<double>(quorums.size()), 1e-12);
  EXPECT_DOUBLE_EQ(tree.uniform_touch_probability({}), 0.0);
  const std::vector<std::size_t> bad{99};
  EXPECT_THROW((void)tree.uniform_touch_probability(bad), std::out_of_range);
}

}  // namespace
}  // namespace qp::quorum
