#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "net/embedding.hpp"
#include "net/knn_index.hpp"
#include "net/latency_matrix.hpp"
#include "net/matrix_io.hpp"
#include "net/synthetic.hpp"
#include "support/net_oracles.hpp"

namespace qp::net {
namespace {

using qp::net::test_support::densify;
using qp::net::test_support::satisfies_triangle_inequality;
using qp::net::test_support::write_matrix;

// ---------------------------------------------------------- LatencyMatrix

TEST(LatencyMatrix, ValidatesInput) {
  EXPECT_THROW(LatencyMatrix({{0.0, 1.0}, {2.0, 0.0}}), std::invalid_argument);  // Asymmetric.
  EXPECT_THROW(LatencyMatrix(std::vector<std::vector<double>>{{1.0}}),
               std::invalid_argument);  // Nonzero diagonal.
  EXPECT_THROW(LatencyMatrix({{0.0, -1.0}, {-1.0, 0.0}}), std::invalid_argument);
  EXPECT_THROW(LatencyMatrix({{0.0, 1.0}}), std::invalid_argument);  // Non-square.
}

TEST(LatencyMatrix, MetricClosureFixesTriangleViolation) {
  const LatencyMatrix raw{{{0.0, 1.0, 10.0}, {1.0, 0.0, 1.0}, {10.0, 1.0, 0.0}}};
  EXPECT_FALSE(satisfies_triangle_inequality(raw));
  const LatencyMatrix closed = raw.metric_closure();
  EXPECT_TRUE(satisfies_triangle_inequality(closed));
  EXPECT_DOUBLE_EQ(closed.rtt(0, 2), 2.0);
}

TEST(LatencyMatrix, MedianMinimizesDistanceSum) {
  // Line topology 0 - 1 - 2: the middle node is the median.
  const LatencyMatrix m{{{0.0, 1.0, 2.0}, {1.0, 0.0, 1.0}, {2.0, 1.0, 0.0}}};
  EXPECT_EQ(net::median_site(m), 1u);
}

TEST(LatencyMatrix, BallOrdering) {
  const LatencyMatrix m{{{0.0, 3.0, 1.0, 2.0},
                         {3.0, 0.0, 2.0, 5.0},
                         {1.0, 2.0, 0.0, 4.0},
                         {2.0, 5.0, 4.0, 0.0}}};
  const auto ball = net::ball(m, 0, 3);
  EXPECT_EQ(ball, (std::vector<std::size_t>{0, 2, 3}));
  EXPECT_THROW((void)net::ball(m, 0, 5), std::invalid_argument);
}

TEST(LatencyMatrix, AverageIncludesSelf) {
  const LatencyMatrix m{{{0.0, 2.0}, {2.0, 0.0}}};
  EXPECT_DOUBLE_EQ(net::average_rtt_from(m, 0), 1.0);
}

TEST(LatencySpaceRows, EmbeddingMatchesDensifiedAndKnnIndex) {
  // ball / median_site / average_rtt_from are one implementation over any
  // LatencySpace: on an embedding they must equal the same calls on its
  // densify(), and ball must equal the kd-tree's k-NN answer (the
  // brute-force vs kd-tree pair).
  common::Rng rng{2004};
  const std::size_t n = 40;
  std::vector<double> coords(2 * n);
  std::vector<double> heights(n);
  for (double& c : coords) c = rng.uniform(0.0, 100.0);
  for (double& h : heights) h = rng.uniform(0.0, 5.0);
  const LatencyEmbedding space{2, coords, heights, /*min_rtt_ms=*/0.5};
  const LatencyMatrix dense = densify(space);
  const KnnIndex index{space};

  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t k : {std::size_t{1}, std::size_t{7}, n}) {
      const std::vector<std::size_t> sites = ball(space, v, k);
      EXPECT_EQ(sites, ball(dense, v, k)) << "v=" << v << " k=" << k;
      std::vector<std::size_t> knn_sites;
      for (const KnnIndex::Neighbor& neighbor : index.nearest(v, k)) {
        knn_sites.push_back(neighbor.site);
      }
      EXPECT_EQ(sites, knn_sites) << "v=" << v << " k=" << k;
      EXPECT_EQ(sites.front(), v);
    }
    EXPECT_DOUBLE_EQ(average_rtt_from(space, v), average_rtt_from(dense, v));
  }
  EXPECT_EQ(median_site(space), median_site(dense));

  EXPECT_THROW((void)ball(space, n, 1), std::out_of_range);
  EXPECT_THROW((void)ball(space, 0, n + 1), std::invalid_argument);
  EXPECT_THROW((void)average_rtt_from(space, n), std::out_of_range);
}

// -------------------------------------------------------------- Synthetic

TEST(Synthetic, Planetlab50Shape) {
  const LatencyMatrix m = planetlab50_synth();
  EXPECT_EQ(m.size(), 50u);
  EXPECT_TRUE(satisfies_triangle_inequality(m, 1e-6));
  // WAN-like statistics: some short and some intercontinental RTTs.
  double min_rtt = 1e9, max_rtt = 0.0;
  for (std::size_t a = 0; a < m.size(); ++a) {
    for (std::size_t b = a + 1; b < m.size(); ++b) {
      min_rtt = std::min(min_rtt, m.rtt(a, b));
      max_rtt = std::max(max_rtt, m.rtt(a, b));
    }
  }
  EXPECT_LT(min_rtt, 20.0);   // Intra-cluster pairs are tens of ms at most.
  EXPECT_GT(max_rtt, 120.0);  // Trans-Pacific pairs exceed 120 ms.
  EXPECT_LT(max_rtt, 600.0);  // But nothing absurd.
}

TEST(Synthetic, Daxlist161Shape) {
  const LatencyMatrix m = daxlist161_synth();
  EXPECT_EQ(m.size(), 161u);
  EXPECT_TRUE(satisfies_triangle_inequality(m, 1e-6));
}

TEST(Synthetic, DeterministicInSeed) {
  const LatencyMatrix a = planetlab50_synth(99);
  const LatencyMatrix b = planetlab50_synth(99);
  const LatencyMatrix c = planetlab50_synth(100);
  EXPECT_DOUBLE_EQ(a.rtt(3, 17), b.rtt(3, 17));
  EXPECT_NE(a.rtt(3, 17), c.rtt(3, 17));
}

TEST(Synthetic, IntraRegionFasterThanInterRegion) {
  const SyntheticTopology topo = generate_topology([] {
    SyntheticConfig config;
    config.seed = 5;
    config.regions = {{"us", 40.0, -90.0, 3.0, 10}, {"asia", 35.0, 135.0, 3.0, 10}};
    return config;
  }());
  double intra = 0.0, inter = 0.0;
  int intra_n = 0, inter_n = 0;
  for (std::size_t a = 0; a < topo.sites.size(); ++a) {
    for (std::size_t b = a + 1; b < topo.sites.size(); ++b) {
      if (topo.sites[a].region == topo.sites[b].region) {
        intra += topo.matrix.rtt(a, b);
        ++intra_n;
      } else {
        inter += topo.matrix.rtt(a, b);
        ++inter_n;
      }
    }
  }
  EXPECT_LT(intra / intra_n, inter / inter_n / 3.0);
}

TEST(Synthetic, SmallSynthSizes) {
  for (std::size_t n : {3u, 10u, 16u}) {
    EXPECT_EQ(small_synth(n).size(), n);
  }
  EXPECT_THROW((void)small_synth(0), std::invalid_argument);
}

TEST(Synthetic, RejectsEmptyConfig) {
  EXPECT_THROW((void)generate_topology(SyntheticConfig{}), std::invalid_argument);
}

// -------------------------------------------------------------- Matrix IO

TEST(MatrixIo, RoundTrip) {
  const LatencyMatrix original = small_synth(8, 3);
  std::stringstream buffer;
  write_matrix(buffer, original);
  const LatencyMatrix parsed = read_matrix(buffer);
  ASSERT_EQ(parsed.size(), original.size());
  for (std::size_t a = 0; a < parsed.size(); ++a) {
    EXPECT_EQ(parsed.site_name(a), original.site_name(a));
    for (std::size_t b = 0; b < parsed.size(); ++b) {
      EXPECT_NEAR(parsed.rtt(a, b), original.rtt(a, b), 1e-4);
    }
  }
}

TEST(MatrixIo, ParsesWithoutNamesAndWithComments) {
  std::stringstream in{"# comment\n2\n0 5.5\n5.5 0 # trailing\n"};
  const LatencyMatrix m = read_matrix(in);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_DOUBLE_EQ(m.rtt(0, 1), 5.5);
  EXPECT_EQ(m.site_name(0), "site-0");
}

TEST(MatrixIo, RejectsMalformedInput) {
  std::stringstream empty{""};
  EXPECT_THROW((void)read_matrix(empty), std::runtime_error);
  std::stringstream truncated{"3\n0 1 2\n1 0 3\n"};
  EXPECT_THROW((void)read_matrix(truncated), std::runtime_error);
  std::stringstream asym{"2\n0 1\n9 0\n"};
  EXPECT_THROW((void)read_matrix(asym), std::runtime_error);
  EXPECT_THROW((void)read_matrix_file("/nonexistent/path.txt"), std::runtime_error);
  // The site count must be a positive integer: fractional, negative and NaN
  // headers are rejected with the documented error type.
  for (const char* text : {"2.5\n0 1\n1 0", "2.9 0 1 1 0", "-1 0", "nan 0"}) {
    std::stringstream in{text};
    EXPECT_THROW((void)read_matrix(in), std::runtime_error) << text;
  }
  // A header claiming far more sites than the body holds fails as truncated
  // instead of allocating the claimed n x n table up front.
  std::stringstream oversized{"1000000\n0 1\n1 0\n"};
  EXPECT_THROW((void)read_matrix(oversized), std::runtime_error);
}

}  // namespace
}  // namespace qp::net
