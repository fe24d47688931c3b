#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/capacity.hpp"
#include "core/placement.hpp"
#include "net/synthetic.hpp"

namespace qp::core {
namespace {

TEST(UniformLevels, MatchesEquation77) {
  // c_i = L_opt + i * (1 - L_opt) / 10.
  const auto levels = uniform_capacity_levels(0.3, 10);
  ASSERT_EQ(levels.size(), 10u);
  EXPECT_NEAR(levels[0], 0.37, 1e-12);
  EXPECT_NEAR(levels[4], 0.65, 1e-12);
  EXPECT_NEAR(levels[9], 1.0, 1e-12);
  EXPECT_TRUE(std::is_sorted(levels.begin(), levels.end()));
}

TEST(UniformLevels, AllAboveOptimalLoad) {
  for (double l_opt : {0.1, 0.36, 0.9}) {
    for (double c : uniform_capacity_levels(l_opt, 10)) {
      EXPECT_GT(c, l_opt);
      EXPECT_LE(c, 1.0 + 1e-12);
    }
  }
}

TEST(UniformLevels, DegenerateLoptOne) {
  const auto levels = uniform_capacity_levels(1.0, 10);
  for (double c : levels) EXPECT_DOUBLE_EQ(c, 1.0);
}

TEST(UniformLevels, RejectsBadInput) {
  EXPECT_THROW((void)uniform_capacity_levels(0.0, 10), std::invalid_argument);
  EXPECT_THROW((void)uniform_capacity_levels(-0.5, 10), std::invalid_argument);
  EXPECT_THROW((void)uniform_capacity_levels(1.5, 10), std::invalid_argument);
  EXPECT_THROW((void)uniform_capacity_levels(0.5, 0), std::invalid_argument);
}

TEST(UniformCapacities, FillsVector) {
  const auto caps = uniform_capacities(5, 0.4);
  EXPECT_EQ(caps.size(), 5u);
  for (double c : caps) EXPECT_DOUBLE_EQ(c, 0.4);
  EXPECT_THROW((void)uniform_capacities(3, -0.1), std::invalid_argument);
}

TEST(NonuniformCapacities, EndpointsHitBetaAndGamma) {
  const net::LatencyMatrix m = net::small_synth(12, 3);
  std::vector<std::size_t> support{0, 1, 2, 3, 4, 5};
  const double beta = 0.3, gamma = 0.9;
  const auto caps = nonuniform_capacities(m, support, beta, gamma);
  ASSERT_EQ(caps.size(), m.size());

  // Identify the support site with min / max average distance.
  std::size_t closest = support[0], farthest = support[0];
  for (std::size_t s : support) {
    if (net::average_rtt_from(m, s) < net::average_rtt_from(m, closest)) closest = s;
    if (net::average_rtt_from(m, s) > net::average_rtt_from(m, farthest)) farthest = s;
  }
  // 1/s largest for the closest site -> gamma; smallest -> beta.
  EXPECT_NEAR(caps[closest], gamma, 1e-12);
  EXPECT_NEAR(caps[farthest], beta, 1e-12);
  for (std::size_t s : support) {
    EXPECT_GE(caps[s], beta - 1e-12);
    EXPECT_LE(caps[s], gamma + 1e-12);
  }
}

TEST(NonuniformCapacities, InverseMonotoneInAverageDistance) {
  const net::LatencyMatrix m = net::small_synth(10, 5);
  std::vector<std::size_t> support{1, 3, 5, 7, 9};
  const auto caps = nonuniform_capacities(m, support, 0.2, 0.8);
  for (std::size_t a : support) {
    for (std::size_t b : support) {
      if (net::average_rtt_from(m, a) < net::average_rtt_from(m, b)) {
        EXPECT_GE(caps[a] + 1e-12, caps[b]);
      }
    }
  }
}

TEST(NonuniformCapacities, NonSupportSitesGetGamma) {
  const net::LatencyMatrix m = net::small_synth(6, 7);
  const std::vector<std::size_t> support{0, 1};
  const auto caps = nonuniform_capacities(m, support, 0.1, 0.5);
  for (std::size_t s = 2; s < m.size(); ++s) EXPECT_DOUBLE_EQ(caps[s], 0.5);
}

TEST(NonuniformCapacities, DegenerateIntervalAndEqualDistances) {
  const net::LatencyMatrix m = net::small_synth(6, 7);
  const std::vector<std::size_t> support{0, 1, 2};
  // beta == gamma: every site gets the single value.
  const auto caps = nonuniform_capacities(m, support, 0.4, 0.4);
  for (std::size_t s : support) EXPECT_DOUBLE_EQ(caps[s], 0.4);

  // Perfectly symmetric matrix -> all s_i equal -> all gamma.
  const net::LatencyMatrix symmetric{{{0.0, 2.0, 2.0},  //
                                      {2.0, 0.0, 2.0},
                                      {2.0, 2.0, 0.0}}};
  const auto equal = nonuniform_capacities(symmetric, std::vector<std::size_t>{0, 1, 2},
                                           0.2, 0.7);
  for (std::size_t s = 0; s < 3; ++s) EXPECT_DOUBLE_EQ(equal[s], 0.7);
}

TEST(NonuniformCapacities, RejectsBadInput) {
  const net::LatencyMatrix m = net::small_synth(6, 7);
  const std::vector<std::size_t> support{0, 1};
  EXPECT_THROW((void)nonuniform_capacities(m, {}, 0.1, 0.5), std::invalid_argument);
  EXPECT_THROW((void)nonuniform_capacities(m, support, 0.6, 0.5), std::invalid_argument);
  EXPECT_THROW((void)nonuniform_capacities(m, support, -0.1, 0.5), std::invalid_argument);
  EXPECT_THROW((void)nonuniform_capacities(m, support, 0.1, 1.5), std::invalid_argument);
}

}  // namespace
}  // namespace qp::core
