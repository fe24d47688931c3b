#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include "net/embedding.hpp"
#include "net/synthetic.hpp"
#include "sim/scenario.hpp"
#include "support/net_oracles.hpp"

namespace qp::net {
namespace {

using qp::net::test_support::densify;

// ----------------------------------------------------- LatencyEmbedding

TEST(LatencyEmbedding, RttMatchesHeightModel) {
  // Two sites 3-4-5 apart in 2-d with heights 1 and 2: rtt = 5 + 1 + 2.
  const LatencyEmbedding space{2, {0.0, 0.0, 3.0, 4.0}, {1.0, 2.0}};
  EXPECT_DOUBLE_EQ(space.rtt(0, 1), 8.0);
  EXPECT_DOUBLE_EQ(space.rtt(1, 0), 8.0);  // Symmetric by construction.
  EXPECT_DOUBLE_EQ(space.rtt(0, 0), 0.0);  // Self-RTT is 0, not 2 * height.
}

TEST(LatencyEmbedding, MinRttFloorsSmallDistances) {
  const LatencyEmbedding space{1, {0.0, 0.1}, {0.0, 0.0}, /*min_rtt_ms=*/0.5};
  EXPECT_DOUBLE_EQ(space.rtt(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(space.rtt(0, 0), 0.0);  // The floor never applies to self.
}

TEST(LatencyEmbedding, ValidatesInputs) {
  EXPECT_THROW((LatencyEmbedding{2, {0.0, 0.0, 1.0}, {0.0}}), std::invalid_argument);
  EXPECT_THROW((LatencyEmbedding{2, {0.0, 0.0}, {-1.0}}), std::invalid_argument);
  EXPECT_THROW((LatencyEmbedding{0, {}, {}}), std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((LatencyEmbedding{1, {nan}, {0.0}}), std::invalid_argument);
  EXPECT_THROW((LatencyEmbedding{1, {0.0}, {0.0}, -1.0}), std::invalid_argument);
}

TEST(LatencyEmbedding, SatisfiesTriangleInequality) {
  // The height model is a metric by construction; spot-check every triple of
  // a generated 40-site embedding (the property placement algorithms lean
  // on when they treat rtt as a distance).
  sim::ScenarioConfig config;
  config.site_count = 40;
  const sim::SparseScenario scenario = sim::make_sparse_scenario(config);
  const LatencyEmbedding& space = scenario.space;
  for (std::size_t a = 0; a < space.size(); ++a) {
    for (std::size_t b = 0; b < space.size(); ++b) {
      for (std::size_t c = 0; c < space.size(); ++c) {
        EXPECT_LE(space.rtt(a, c), space.rtt(a, b) + space.rtt(b, c) + 1e-9);
      }
    }
  }
}

TEST(LatencyEmbedding, DensifyMatchesRttBitwise) {
  sim::ScenarioConfig config;
  config.site_count = 60;
  const sim::SparseScenario scenario = sim::make_sparse_scenario(config);
  const LatencyMatrix dense = densify(scenario.space);
  ASSERT_EQ(dense.size(), scenario.space.size());
  for (std::size_t a = 0; a < dense.size(); ++a) {
    for (std::size_t b = 0; b < dense.size(); ++b) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(dense.rtt(a, b)),
                std::bit_cast<std::uint64_t>(scenario.space.rtt(a, b)))
          << "pair (" << a << ", " << b << ")";
    }
  }
}

TEST(LatencyEmbedding, FillRttsMatchesRtt) {
  sim::ScenarioConfig config;
  config.site_count = 50;
  const sim::SparseScenario scenario = sim::make_sparse_scenario(config);
  std::vector<std::size_t> sites;
  for (std::size_t s = 0; s < scenario.space.size(); s += 3) sites.push_back(s);
  std::vector<double> out(sites.size());
  scenario.space.fill_rtts(7, sites.data(), sites.size(), out.data());
  for (std::size_t i = 0; i < sites.size(); ++i) {
    EXPECT_EQ(out[i], scenario.space.rtt(7, sites[i]));
  }
}

// ------------------------------------------------- fit_latency_embedding

TEST(FitLatencyEmbedding, DeterministicAcrossRunsAndThreads) {
  // The fit is serial by design, so two runs — one of them on a different
  // thread — must agree bitwise, both in the coordinates (via rtt) and the
  // reported error stats. This is the "cannot depend on QP_THREADS" pin.
  const LatencyMatrix measured = planetlab50_synth();
  const FittedEmbedding first = fit_latency_embedding(measured);

  FittedEmbedding* second = nullptr;
  std::thread worker(
      [&] { second = new FittedEmbedding{fit_latency_embedding(measured)}; });
  worker.join();
  ASSERT_NE(second, nullptr);

  ASSERT_EQ(first.embedding.size(), second->embedding.size());
  for (std::size_t a = 0; a < measured.size(); ++a) {
    for (std::size_t b = 0; b < measured.size(); ++b) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(first.embedding.rtt(a, b)),
                std::bit_cast<std::uint64_t>(second->embedding.rtt(a, b)));
    }
  }
  EXPECT_EQ(first.stats.sample_pairs, second->stats.sample_pairs);
  EXPECT_EQ(first.stats.mean_rel_error, second->stats.mean_rel_error);
  EXPECT_EQ(first.stats.median_rel_error, second->stats.median_rel_error);
  EXPECT_EQ(first.stats.p95_rel_error, second->stats.p95_rel_error);
  EXPECT_EQ(first.stats.max_abs_error_ms, second->stats.max_abs_error_ms);
  delete second;
}

TEST(FitLatencyEmbedding, ErrorStatsWithinBounds) {
  // The synthetic planetlab-50 matrix is generated from embedded coordinates
  // plus bounded noise, so a 5-d fit should recover it well. The bounds are
  // loose pins (~2x the observed values) so a regression that breaks the
  // relaxation — not ordinary FP drift — trips them.
  const FittedEmbedding fitted = fit_latency_embedding(planetlab50_synth());
  EXPECT_GT(fitted.stats.sample_pairs, 0u);
  EXPECT_GT(fitted.stats.mean_rel_error, 0.0);  // A perfect fit is a bug too.
  EXPECT_LT(fitted.stats.mean_rel_error, 0.25);
  EXPECT_LE(fitted.stats.median_rel_error, fitted.stats.p95_rel_error);
  EXPECT_LT(fitted.stats.p95_rel_error, 0.60);
}

TEST(FitLatencyEmbedding, HonorsConfigDimensions) {
  const LatencyMatrix measured = planetlab50_synth();
  EmbeddingConfig config;
  config.dimensions = 3;
  config.iterations = 8;
  const FittedEmbedding fitted = fit_latency_embedding(measured, config);
  EXPECT_EQ(fitted.embedding.dimensions(), 3u);
  EXPECT_EQ(fitted.embedding.size(), measured.size());
}

// --------------------------------------------------------- SparseScenario

TEST(SparseScenario, SitePlacementMatchesDenseGeneratorBitwise) {
  // make_sparse_scenario promises the same world template and seeded streams
  // as make_scenario: locations and demand must match the dense generator
  // exactly for equal configs.
  sim::ScenarioConfig config;
  config.site_count = 80;
  const sim::Scenario dense = sim::make_scenario(config);
  const sim::SparseScenario sparse = sim::make_sparse_scenario(config);
  ASSERT_EQ(dense.sites.size(), sparse.sites.size());
  for (std::size_t s = 0; s < dense.sites.size(); ++s) {
    EXPECT_EQ(dense.sites[s].latitude_deg, sparse.sites[s].latitude_deg);
    EXPECT_EQ(dense.sites[s].longitude_deg, sparse.sites[s].longitude_deg);
  }
  ASSERT_EQ(dense.client_demand.size(), sparse.client_demand.size());
  for (std::size_t s = 0; s < dense.client_demand.size(); ++s) {
    EXPECT_EQ(dense.client_demand[s], sparse.client_demand[s]);
  }
}

}  // namespace
}  // namespace qp::net
