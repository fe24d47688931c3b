#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <set>
#include <vector>

#include "common/combinatorics.hpp"
#include "common/rng.hpp"
#include "common/simd_kernels.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "net/latency_matrix.hpp"
#include "support/quorum_enumeration.hpp"

namespace qp::common {
namespace {

/// Exact C(n, k) in unsigned 64-bit; throws on overflow. The integer oracle
/// of the lgamma-based binomial().
std::uint64_t binomial_exact(std::size_t n, std::size_t k) {
  if (k > n) return 0;
  k = std::min(k, n - k);
  std::uint64_t result = 1;
  for (std::size_t i = 1; i <= k; ++i) {
    const std::uint64_t numer = n - k + i;
    // result * numer / i is always integral at this point; check overflow first.
    if (result > std::numeric_limits<std::uint64_t>::max() / numer) {
      throw std::overflow_error{"binomial_exact: overflow"};
    }
    result = result * numer / i;
  }
  return result;
}

// ------------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a{123}, b{123};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1}, b{2};
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, ReseedRestoresStream) {
  Rng rng{7};
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 10; ++i) first.push_back(rng.next());
  rng = Rng{7};
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.next(), first[i]);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent{9};
  Rng child = parent.fork(1);
  // The child must not replay the parent's stream.
  Rng parent_again{9};
  EXPECT_NE(child.next(), parent_again.next());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng{11};
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanApproximatesHalf) {
  Rng rng{13};
  double sum = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BelowIsInRangeAndCoversAll) {
  Rng rng{17};
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, BelowZeroThrows) {
  Rng rng{1};
  EXPECT_THROW((void)rng.below(0), std::invalid_argument);
}

TEST(Rng, NormalMoments) {
  Rng rng{23};
  RunningStats stats;
  for (int i = 0; i < 200'000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Rng, ExponentialMeanAndPositivity) {
  Rng rng{29};
  RunningStats stats;
  for (int i = 0; i < 100'000; ++i) {
    const double x = rng.exponential(3.0);
    EXPECT_GT(x, 0.0);
    stats.add(x);
  }
  EXPECT_NEAR(stats.mean(), 3.0, 0.1);
  EXPECT_THROW((void)rng.exponential(0.0), std::invalid_argument);
}

TEST(Rng, LognormalMedian) {
  Rng rng{31};
  std::vector<double> xs;
  for (int i = 0; i < 50'000; ++i) xs.push_back(rng.lognormal(0.0, 0.5));
  // Median of lognormal(0, sigma) is exp(0) = 1.
  EXPECT_NEAR(percentile(xs, 50.0), 1.0, 0.05);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng{37};
  for (int trial = 0; trial < 100; ++trial) {
    const auto sample = rng.sample_without_replacement(20, 8);
    std::set<std::size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 8u);
    for (std::size_t v : sample) EXPECT_LT(v, 20u);
  }
  EXPECT_THROW((void)rng.sample_without_replacement(3, 4), std::invalid_argument);
}

TEST(Rng, SampleWithoutReplacementUniform) {
  Rng rng{41};
  std::vector<int> hits(10, 0);
  const int trials = 50'000;
  for (int trial = 0; trial < trials; ++trial) {
    for (std::size_t v : rng.sample_without_replacement(10, 3)) hits[v] += 1;
  }
  for (int h : hits) {
    EXPECT_NEAR(static_cast<double>(h) / trials, 0.3, 0.02);
  }
}

// ------------------------------------------------------- SimdKernels

TEST(SimdKernels, GatherIndexedMatchesScalarForAllTailLengths) {
  // LatencyMatrix::fill_rtts, the gather every dense per-client evaluation
  // starts from, only moves data: out[i] must be the row entry bit-for-bit.
  // Sizes 0..33 cover every remainder of a 4- or 8-lane loop; indices repeat
  // and jump around so a lane-ordering bug cannot cancel out. Row 0 carries
  // the special entries (a matrix holds finite, non-negative RTTs, so the
  // extreme entry is the largest one the symmetrizing average keeps exact).
  Rng rng{2024};
  const std::size_t sites = 257;
  std::vector<double> base(sites);
  for (double& v : base) v = std::abs(rng.normal(0.0, 1e6));
  base[0] = 0.0;
  base[1] = -0.0;
  base[2] = std::numeric_limits<double>::denorm_min();
  base[3] = std::numeric_limits<double>::max() / 2;
  std::vector<std::vector<double>> rtt(sites, std::vector<double>(sites, 1.0));
  for (std::size_t v = 0; v < sites; ++v) {
    rtt[v][v] = 0.0;
    rtt[0][v] = rtt[v][0] = base[v];
  }
  const net::LatencyMatrix matrix{std::move(rtt)};
  for (std::size_t n = 0; n <= 33; ++n) {
    std::vector<std::size_t> idx(n);
    for (std::size_t i = 0; i < n; ++i) idx[i] = rng.below(base.size());
    std::vector<double> out(n + 2, 42.0);  // Canary slots past the end.
    matrix.fill_rtts(0, idx.data(), n, out.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(out[i]),
                std::bit_cast<std::uint64_t>(base[idx[i]]))
          << "n=" << n << " i=" << i;
    }
    EXPECT_EQ(out[n], 42.0) << "tail overwrote past the end at n=" << n;
    EXPECT_EQ(out[n + 1], 42.0);
  }
}

/// The order contract of simd_kernels.hpp, written out: even indices into
/// lane 0, odd into lane 1, an odd tail into lane 0, then (0 + lane0) + lane1.
double two_lane_sum(const std::vector<double>& terms) {
  double lane[2] = {0.0, 0.0};
  const std::size_t pairs = terms.size() / 2 * 2;
  for (std::size_t i = 0; i < pairs; ++i) lane[i % 2] += terms[i];
  if (pairs < terms.size()) lane[0] += terms.back();
  return (0.0 + lane[0]) + lane[1];
}

TEST(SimdKernels, SumsFollowFixedTwoLaneOrder) {
  // weighted_dot and max_with_bound_sum must return the same bits on every
  // build type, so the goldens can compare exact strings. Terms span
  // 1e-3..1e6, where the rounding depends on the order of the additions;
  // lengths 0..65 cover both parities and every tail. A left-to-right sum
  // must differ somewhere, or the inputs would not test the order at all.
  Rng rng{37};
  std::size_t order_sensitive = 0;
  for (std::size_t n = 0; n <= 65; ++n) {
    std::vector<double> values(n);
    std::vector<double> weights(n);
    for (double& v : values) v = std::pow(10.0, rng.uniform(-3.0, 6.0));
    for (double& w : weights) w = rng.uniform();
    const double bound = std::pow(10.0, rng.uniform(-3.0, 6.0));

    std::vector<double> products(n);
    std::vector<double> bounded(n);
    for (std::size_t i = 0; i < n; ++i) {
      products[i] = values[i] * weights[i];
      bounded[i] = values[i] > bound ? values[i] : bound;
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(weighted_dot(values, weights)),
              std::bit_cast<std::uint64_t>(two_lane_sum(products)))
        << "weighted_dot n=" << n;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(max_with_bound_sum(bound, values)),
              std::bit_cast<std::uint64_t>(two_lane_sum(bounded)))
        << "max_with_bound_sum n=" << n;

    double left_to_right = 0.0;
    for (double p : products) left_to_right += p;
    if (left_to_right != two_lane_sum(products)) ++order_sensitive;
  }
  EXPECT_GT(order_sensitive, 0u);
}

// ---------------------------------------------------------------- Stats

TEST(RunningStats, EmptyIsZero) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.stddev(), 0.0);
}

TEST(RunningStats, KnownValues) {
  RunningStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(x);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.stddev(), std::sqrt(32.0 / 7.0), 1e-12);  // Sample variance 32/7.
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng{53};
  RunningStats all, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    all.add(x);
    (i < 400 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.stddev(), all.stddev(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(Stats, MeanAndPercentile) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 2.5);
  EXPECT_THROW((void)percentile({}, 50.0), std::invalid_argument);
  EXPECT_THROW((void)percentile(xs, 101.0), std::invalid_argument);
}

// --------------------------------------------------------- Combinatorics

TEST(Combinatorics, ExactSmallValues) {
  EXPECT_EQ(binomial_exact(5, 2), 10u);
  EXPECT_EQ(binomial_exact(10, 0), 1u);
  EXPECT_EQ(binomial_exact(10, 10), 1u);
  EXPECT_EQ(binomial_exact(10, 11), 0u);
  EXPECT_EQ(binomial_exact(52, 5), 2'598'960u);
}

TEST(Combinatorics, DoubleMatchesExact) {
  for (std::size_t n = 0; n <= 30; ++n) {
    for (std::size_t k = 0; k <= n; ++k) {
      EXPECT_NEAR(binomial(n, k), static_cast<double>(binomial_exact(n, k)),
                  1e-6 * static_cast<double>(binomial_exact(n, k)) + 1e-9)
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(Combinatorics, LogBinomialHandlesHugeArguments) {
  // The ratios go through log space: C(1100, 550) overflows a double, but
  // C(1099, 550) / C(1100, 550) = 550 / 1100 stays exact to rounding.
  EXPECT_FALSE(std::isfinite(binomial(1100, 550)));
  EXPECT_NEAR(binomial_ratio(1099, 1100, 550), 0.5, 1e-9);
  EXPECT_GT(binomial(161, 80), 1e47);
  EXPECT_EQ(binomial(5, 6), 0.0);
}

TEST(Combinatorics, BinomialRatioStable) {
  // C(100, 10) / C(200, 10) computed stably.
  const double ratio = binomial_ratio(100, 200, 10);
  const double expected = binomial(100, 10) / binomial(200, 10);
  EXPECT_NEAR(ratio, expected, 1e-12);
  EXPECT_EQ(binomial_ratio(5, 10, 6), 0.0);
}

// all_subsets is the Majority enumeration oracle (tests/support).
using quorum::test_support::all_subsets;

TEST(Combinatorics, AllSubsetsEnumeration) {
  const auto subsets = all_subsets(5, 3);
  EXPECT_EQ(subsets.size(), 10u);
  // Lexicographic order, all distinct, all sorted.
  std::set<std::vector<std::size_t>> unique(subsets.begin(), subsets.end());
  EXPECT_EQ(unique.size(), subsets.size());
  for (const auto& s : subsets) {
    EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
    EXPECT_EQ(s.size(), 3u);
  }
  EXPECT_EQ(subsets.front(), (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(subsets.back(), (std::vector<std::size_t>{2, 3, 4}));
}

TEST(Combinatorics, AllSubsetsEdgeCases) {
  EXPECT_EQ(all_subsets(4, 0).size(), 1u);  // The empty subset.
  EXPECT_EQ(all_subsets(4, 4).size(), 1u);
  EXPECT_TRUE(all_subsets(3, 4).empty());
  EXPECT_THROW((void)all_subsets(100, 50), std::invalid_argument);
}

TEST(Combinatorics, BinomialRatioRowPinsDirectComputation) {
  // The memoized CDF rows feeding the order-statistic fast path must equal
  // the direct (uncached) computation exactly, including the zero prefix and
  // the row[n] == 1 terminal value.
  for (const auto& [n, k] : {std::pair<std::size_t, std::size_t>{10, 4},
                             {49, 25},
                             {161, 80},
                             {7, 7},
                             {5, 1}}) {
    const std::vector<double>& row = binomial_ratio_row(n, k);
    ASSERT_EQ(row.size(), n + 1);
    for (std::size_t i = 0; i <= n; ++i) {
      EXPECT_EQ(row[i], binomial_ratio(i, n, k)) << "n=" << n << " k=" << k << " i=" << i;
    }
    EXPECT_DOUBLE_EQ(row[n], 1.0);
    for (std::size_t i = 0; i < k; ++i) EXPECT_EQ(row[i], 0.0);
  }
}

TEST(Combinatorics, BinomialRatioRowReturnsStableReference) {
  const std::vector<double>& first = binomial_ratio_row(12, 5);
  // Populating other rows must not invalidate or move the first.
  for (std::size_t n = 2; n < 40; ++n) (void)binomial_ratio_row(n, n / 2 + 1);
  const std::vector<double>& again = binomial_ratio_row(12, 5);
  EXPECT_EQ(&first, &again);
}

// ------------------------------------------------------------- ThreadPool

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool{4};
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  ThreadPool pool{1};
  std::vector<int> order;
  pool.parallel_for(3, 8, [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{3, 4, 5, 6, 7}));
}

TEST(ThreadPool, SizeCountsWorkersAndTheCaller) {
  EXPECT_EQ(ThreadPool{1}.size(), 1u);
  EXPECT_EQ(ThreadPool{3}.size(), 3u);
  EXPECT_GE(ThreadPool{0}.size(), 1u);  // 0 = hardware concurrency.
}

TEST(ThreadPool, EmptyRangeIsANoOp) {
  ThreadPool pool{2};
  bool ran = false;
  pool.parallel_for(5, 5, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, NestedParallelForRunsSeriallyWithoutDeadlock) {
  ThreadPool pool{3};
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(0, 8, [&](std::size_t outer) {
    pool.parallel_for(0, 8, [&](std::size_t inner) {
      hits[outer * 8 + inner].fetch_add(1);
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesBodyExceptions) {
  ThreadPool pool{2};
  EXPECT_THROW(pool.parallel_for(0, 16,
                                 [&](std::size_t i) {
                                   if (i == 7) throw std::runtime_error{"boom"};
                                 }),
               std::runtime_error);
  // The pool stays usable afterwards.
  std::atomic<int> count{0};
  pool.parallel_for(0, 10, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ReusableAcrossManyInvocations) {
  ThreadPool pool{2};
  for (int round = 0; round < 50; ++round) {
    std::atomic<long> sum{0};
    pool.parallel_for(0, 100, [&](std::size_t i) { sum.fetch_add(static_cast<long>(i)); });
    EXPECT_EQ(sum.load(), 4950);
  }
}

TEST(ThreadPool, GlobalPoolIsASingleton) {
  EXPECT_EQ(&global_thread_pool(), &global_thread_pool());
}

TEST(Combinatorics, SplitMixIsStable) {
  std::uint64_t state = 0;
  const std::uint64_t first = splitmix64(state);
  const std::uint64_t second = splitmix64(state);
  EXPECT_NE(first, second);
  std::uint64_t replay = 0;
  EXPECT_EQ(splitmix64(replay), first);
}

}  // namespace
}  // namespace qp::common
