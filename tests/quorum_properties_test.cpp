// Generic property suite: every quorum system in the library must satisfy
// the same contract. Parameterized over factories so each new construction
// is automatically held to all invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "quorum/fpp.hpp"
#include "quorum/grid.hpp"
#include "quorum/majority.hpp"
#include "quorum/singleton.hpp"
#include "quorum/tree.hpp"
#include "support/quorum_checks.hpp"

namespace qp::quorum {
namespace {

using qp::quorum::test_support::verify_intersection;

struct SystemCase {
  std::string label;
  std::function<std::unique_ptr<QuorumSystem>()> make;
};

void PrintTo(const SystemCase& c, std::ostream* os) { *os << c.label; }

class QuorumContract : public ::testing::TestWithParam<SystemCase> {
 protected:
  std::unique_ptr<QuorumSystem> system_ = GetParam().make();
};

TEST_P(QuorumContract, EnumerationCountMatchesQuorumCount) {
  const auto quorums = test_support::quorum_list(*system_);
  EXPECT_DOUBLE_EQ(static_cast<double>(quorums.size()), system_->quorum_count());
  EXPECT_FALSE(quorums.empty());
}

TEST_P(QuorumContract, QuorumsAreSortedDistinctInRange) {
  std::set<Quorum> seen;
  for (const Quorum& quorum : test_support::quorum_list(*system_)) {
    EXPECT_TRUE(std::is_sorted(quorum.begin(), quorum.end()));
    EXPECT_EQ(std::adjacent_find(quorum.begin(), quorum.end()), quorum.end());
    EXPECT_FALSE(quorum.empty());
    EXPECT_LT(quorum.back(), system_->universe_size());
    EXPECT_TRUE(seen.insert(quorum).second) << "duplicate quorum";
  }
}

TEST_P(QuorumContract, PairwiseIntersection) {
  EXPECT_TRUE(verify_intersection(*system_));
}

TEST_P(QuorumContract, BestQuorumIsGloballyOptimal) {
  common::Rng rng{0xBEEF};
  const auto quorums = test_support::quorum_list(*system_);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<double> values(system_->universe_size());
    for (double& v : values) v = rng.uniform(0.0, 100.0);
    const Quorum best = system_->best_quorum(values);
    double best_max = 0.0;
    for (std::size_t u : best) best_max = std::max(best_max, values[u]);
    for (const Quorum& quorum : quorums) {
      double worst = 0.0;
      for (std::size_t u : quorum) worst = std::max(worst, values[u]);
      EXPECT_GE(worst + 1e-9, best_max);
    }
    // And the best quorum is an actual quorum of the system.
    EXPECT_NE(std::find(quorums.begin(), quorums.end(), best), quorums.end());
  }
}

TEST_P(QuorumContract, ExpectedMaxMatchesEnumeration) {
  common::Rng rng{0xCAFE};
  const auto quorums = test_support::quorum_list(*system_);
  std::vector<double> values(system_->universe_size());
  for (double& v : values) v = rng.uniform(0.0, 10.0);
  double total = 0.0;
  for (const Quorum& quorum : quorums) {
    double worst = 0.0;
    for (std::size_t u : quorum) worst = std::max(worst, values[u]);
    total += worst;
  }
  EXPECT_NEAR(system_->expected_max_uniform(values),
              total / static_cast<double>(quorums.size()), 1e-9);
}

TEST_P(QuorumContract, ExpectedMaxIsMonotoneInValues) {
  common::Rng rng{0xF00D};
  std::vector<double> values(system_->universe_size());
  for (double& v : values) v = rng.uniform(1.0, 50.0);
  const double base = system_->expected_max_uniform(values);
  std::vector<double> bumped = values;
  for (double& v : bumped) v += 5.0;
  EXPECT_GE(system_->expected_max_uniform(bumped) + 1e-12, base);
  // Bounded by min and max element values.
  const double lo = *std::min_element(values.begin(), values.end());
  const double hi = *std::max_element(values.begin(), values.end());
  EXPECT_GE(base + 1e-12, lo);
  EXPECT_LE(base, hi + 1e-12);
}

TEST_P(QuorumContract, UniformLoadMatchesEnumeration) {
  const auto quorums = test_support::quorum_list(*system_);
  std::vector<double> expected(system_->universe_size(), 0.0);
  for (const Quorum& quorum : quorums) {
    for (std::size_t u : quorum) expected[u] += 1.0;
  }
  for (double& e : expected) e /= static_cast<double>(quorums.size());
  const auto load = system_->uniform_load();
  ASSERT_EQ(load.size(), expected.size());
  for (std::size_t u = 0; u < load.size(); ++u) {
    EXPECT_NEAR(load[u], expected[u], 1e-9) << "element " << u;
  }
}

TEST_P(QuorumContract, OptimalLoadBounds) {
  // L_opt is at least 1/sqrt(n) (Naor-Wool) and at most 1.
  const double l_opt = system_->optimal_load();
  const double n = static_cast<double>(system_->universe_size());
  EXPECT_GE(l_opt + 1e-9, 1.0 / std::sqrt(n));
  EXPECT_LE(l_opt, 1.0 + 1e-12);
}

TEST_P(QuorumContract, SamplesAreValidQuorums) {
  common::Rng rng{0xABCD};
  const auto all = test_support::quorum_list(*system_);
  const std::set<Quorum> valid(all.begin(), all.end());
  for (const Quorum& quorum : system_->sample_quorums(50, rng)) {
    EXPECT_TRUE(valid.count(quorum)) << "sampled non-quorum";
  }
}

TEST_P(QuorumContract, TouchProbabilityConsistency) {
  // P(touch all elements' union) == 1; P(touch {u}) == uniform_load for
  // systems where every quorum hits u at most once (all of ours).
  std::vector<std::size_t> everything(system_->universe_size());
  for (std::size_t u = 0; u < everything.size(); ++u) everything[u] = u;
  EXPECT_NEAR(system_->uniform_touch_probability(everything), 1.0, 1e-12);
  const auto load = system_->uniform_load();
  for (std::size_t u = 0; u < std::min<std::size_t>(4, everything.size()); ++u) {
    const std::vector<std::size_t> single{u};
    EXPECT_NEAR(system_->uniform_touch_probability(single), load[u], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSystems, QuorumContract,
    ::testing::Values(
        SystemCase{"Majority_3_2", [] { return std::make_unique<MajorityQuorum>(3, 2); }},
        SystemCase{"Majority_5_3", [] { return std::make_unique<MajorityQuorum>(5, 3); }},
        SystemCase{"Majority_7_5", [] { return std::make_unique<MajorityQuorum>(7, 5); }},
        SystemCase{"Majority_11_9",
                   [] { return std::make_unique<MajorityQuorum>(11, 9); }},
        SystemCase{"Grid_2", [] { return std::make_unique<GridQuorum>(2); }},
        SystemCase{"Grid_3", [] { return std::make_unique<GridQuorum>(3); }},
        SystemCase{"Grid_5", [] { return std::make_unique<GridQuorum>(5); }},
        SystemCase{"Grid_7", [] { return std::make_unique<GridQuorum>(7); }},
        SystemCase{"Singleton", [] { return std::make_unique<SingletonQuorum>(); }},
        SystemCase{"Tree_h1", [] { return std::make_unique<TreeQuorum>(1); }},
        SystemCase{"Tree_h2", [] { return std::make_unique<TreeQuorum>(2); }},
        SystemCase{"Tree_h3", [] { return std::make_unique<TreeQuorum>(3); }},
        SystemCase{"Fpp_2", [] { return std::make_unique<FppQuorum>(2); }},
        SystemCase{"Fpp_3", [] { return std::make_unique<FppQuorum>(3); }},
        SystemCase{"Fpp_5", [] { return std::make_unique<FppQuorum>(5); }}),
    [](const ::testing::TestParamInfo<SystemCase>& info) { return info.param.label; });

}  // namespace
}  // namespace qp::quorum
